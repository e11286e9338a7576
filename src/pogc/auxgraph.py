"""Auxiliary graph on ordered adjacent pairs, 2-colouring, closures.

Each adjacent pair {u, v} of the underlying graph contributes two
vertices (u, v) and (v, u).  Adjacency couples orientation choices:
picking one endpoint of an auxiliary edge forces rejecting the other.
Orientations inside the target class correspond to colour classes of
the components, so orientability reduces to bipartiteness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import InvariantError
from .pog import Certificate, Pog, _norm, bfs_path, classify

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


@dataclass(frozen=True)
class AuxGraph:
    P: Pog
    mode: str
    verts: tuple          # ordered pairs, sorted
    adj: tuple            # tuple of sorted tuples of vertex ids
    comp: tuple           # component id per vertex, numbered by smallest pair

    @cached_property
    def vid(self):
        return {p: k for k, p in enumerate(self.verts)}

    @property
    def ncomp(self):
        return max(self.comp) + 1 if self.comp else 0

    @cached_property
    def comp_members(self):
        out = [[] for _ in range(self.ncomp)]
        for k, c in enumerate(self.comp):
            out[c].append(k)
        return tuple(tuple(m) for m in out)

    def is_thin(self, c):
        """A thin component is just an edge pair {(u, v), (v, u)}."""
        return len(self.comp_members[c]) == 2

    def pair_names(self, vidx):
        i, j = self.verts[vidx]
        return [self.P.names[i], self.P.names[j]]


def build_aux(P, mode="local_tournament"):
    verts = []
    for i, j in sorted(P.und_pairs):
        verts.append((i, j))
        verts.append((j, i))
    verts.sort()
    m = len(verts)
    adj = [[] for _ in range(m)]
    for x in range(m):
        for y in range(x + 1, m):
            if aux_adjacent(P, verts[x], verts[y], mode):
                adj[x].append(y)
                adj[y].append(x)
    comp = [-1] * m
    c = 0
    for s in range(m):
        if comp[s] >= 0:
            continue
        comp[s] = c
        q = deque([s])
        while q:
            v = q.popleft()
            for w in adj[v]:
                if comp[w] < 0:
                    comp[w] = c
                    q.append(w)
        c += 1
    return AuxGraph(P, mode, tuple(verts), tuple(tuple(a) for a in adj),
                    tuple(comp))


@dataclass(frozen=True)
class TwoColouring:
    X: AuxGraph
    colours: tuple  # 0 (red) / 1 (blue) per aux vertex

    def colour_of(self, pair):
        return self.colours[self.X.vid[pair]]

    def class_pairs(self, c, colour):
        return [self.X.verts[k] for k in self.X.comp_members[c]
                if self.colours[k] == colour]


def two_colour(X):
    """2-colour every component, the lexicographically smallest pair of
    each component red.  Returns a TwoColouring or an OddClosedWalkAux
    certificate."""
    colours = [-1] * len(X.verts)
    parent = [-1] * len(X.verts)
    for members in X.comp_members:
        root = members[0]  # verts are sorted, so this is the smallest pair
        colours[root] = 0
        q = deque([root])
        while q:
            v = q.popleft()
            for w in X.adj[v]:
                if colours[w] < 0:
                    colours[w] = 1 - colours[v]
                    parent[w] = v
                    q.append(w)
                elif colours[w] == colours[v]:
                    walk = _odd_closed_walk(X, parent, v, w)
                    return Certificate("OddClosedWalkAux", {
                        "walk": [X.pair_names(k) for k in walk],
                        "mode": X.mode,
                    })
    return TwoColouring(X, tuple(colours))


def _odd_closed_walk(X, parent, v, w):
    """Closed odd walk through the conflict edge vw of a BFS tree."""
    up_v, up_w = [v], [w]
    seen = {v: 0}
    x = v
    while parent[x] >= 0:
        x = parent[x]
        seen[x] = len(up_v)
        up_v.append(x)
    x = w
    while x not in seen:
        x = parent[x]
        up_w.append(x)
    meet = seen[x]
    path_v = up_v[:meet + 1]          # v .. meet
    path_w = up_w                     # w .. meet
    walk = list(reversed(path_v)) + path_w[:-1]
    # walk runs meet .. v, w .. parent-chain; close it back at meet
    walk.append(walk[0])
    return walk


def aux_path(X, a, b):
    """Shortest path between two aux vertices (given as pairs)."""
    path = bfs_path(X.adj.__getitem__, X.vid[a], X.vid[b])
    if path is None:
        raise InvariantError("aux vertices lie in different components")
    return [X.verts[k] for k in path]


def _orient_classes(P, X, fill):
    """Orient, in every aux component holding arcs, the colour class of
    those arcs; with `fill`, also the red class of every component
    without arcs.  Returns the oriented pog, or a certificate when X is
    not bipartite or two arcs of one component take different colours."""
    col = two_colour(X)
    if isinstance(col, Certificate):
        return col
    to_orient = []
    for c, members in enumerate(X.comp_members):
        red, blue = [], []
        for k in members:
            if X.verts[k] in P.arcs:
                (red if col.colours[k] == 0 else blue).append(X.verts[k])
        if red and blue:
            walk = aux_path(X, red[0], blue[0])
            return Certificate("OrientationConflict", {
                "kind": "odd_pair",
                "walk": [[P.names[i], P.names[j]] for i, j in walk],
                "mode": X.mode,
            })
        if red or blue or fill:
            for i, j in col.class_pairs(c, 1 if blue else 0):
                if _norm(i, j) in P.edges:
                    to_orient.append((i, j))
    return P.orient(to_orient)


def consentaneous_closure(P, aux=None):
    """Smallest consentaneous pog containing P.

    In every aux component touched by an arc, the whole colour class of
    that arc is oriented.  Returns a certificate when UG(P) is not
    orientable in the class (odd walk) or two arcs disagree (odd pair).
    """
    X = aux if aux is not None else build_aux(P)
    return _orient_classes(P, X, fill=False)


def complete_via_aux(P, mode="local_tournament"):
    """Complete P inside the class tied to `mode`.

    Components containing arcs keep their forced colour class; untouched
    components take the class of their lexicographically smallest pair.
    Returns the completion or a certificate.
    """
    D = _orient_classes(P, build_aux(P, mode), fill=True)
    if isinstance(D, Certificate):
        return D
    if D.edges:
        raise InvariantError("aux completion left an edge unoriented")
    rep = classify(D)
    ok = rep.local_tournament if mode == "local_tournament" else rep.quasi_transitive
    if not ok:
        raise InvariantError("aux completion fell outside the target class")
    return D
