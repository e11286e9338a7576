"""Friendly pogs and completion to locally transitive local tournaments.

A pog is friendly when it is consentaneous (arcs never disagree across
the auxiliary graph) and has no bad triple.  Friendly pogs are
completable exactly when no directed cycle sits inside a non-universal
cell or inside a single in- or out-neighbourhood.  complete_cells, which
orients every non-universal cell, finds the cell cycles; forbidden_cycle
finds the others.  The completion walks the complement components,
orienting inner thick components by colour class and cross edges by a
tournament on component representatives; each component's two sides are
read off the aux colours.

Proper circular-arc recognition and representation extension are one
pipeline: the window's induced orientation (no arcs for recognition)
is completed to a locally transitive local tournament and laid out
round the circle.
"""

from __future__ import annotations

from itertools import combinations

from .auxgraph import (_arc_classes, build_aux, complete_via_aux,
                       consentaneous_closure, two_colour)
from .errors import InvariantError, NotFriendlyError
from .interval import (_orient_window, complete_to_acyclic_lt,
                       representation_from_orientation)
from .graph import _components, topological_order
from .pog import Certificate, Pog, _is_complete, _neighbourhood_cycle, \
    _norm, find_directed_cycle
from .rounds import _ltt_of_parts


# -- structure ---------------------------------------------------------


def complement_components(P):
    """Connected components of the complement of UG(P), each sorted,
    listed by smallest member."""
    left = set(range(P.n))

    def nbrs(v):
        # complement neighbours not handed out yet: each vertex leaves
        # `left` once, so the search costs O(n + m), not O(n^2)
        out = left - P.adj[v]
        left.difference_update(out)
        return out

    return _components(range(P.n), nbrs)


def _bad_triples(P):
    """bad_triples in order, one at a time.  The two arcs of such a
    triangle meet at one vertex, so each is found once from its pair of
    arcs there, and a pog without arcs does no triangle work."""
    two_arcs = sorted(tuple(sorted((v, a, b))) for v in range(P.n)
                      for a, b in combinations(sorted(P.out_nbrs[v] | P.in_nbrs[v]), 2)
                      if _norm(a, b) in P.edges)
    X = build_aux(P) if two_arcs else None
    for x, y, z in two_arcs:
        if len({X.comp[X.vid[p]] for p in ((x, y), (y, z), (x, z))}) == 3:
            yield x, y, z


def bad_triples(P):
    """Triangles whose edges live in three distinct aux components with
    exactly two of them oriented."""
    return list(_bad_triples(P))


def is_friendly(P):
    """(True, None) or (False, certificate); stops at the first bad
    triple."""
    cert = _arc_classes(P, mates=True)
    if isinstance(cert, Certificate):
        return False, cert
    bad = next(_bad_triples(P), None)
    if bad is not None:
        x, y, z = bad
        return False, Certificate("BadTriple", {
            "triple": [P.names[x], P.names[y], P.names[z]]})
    return True, None


# -- forbidden cycles and cell completion ------------------------------


def forbidden_cycle(P):
    """Directed cycle inside the in- or out-neighbourhood of a vertex,
    as a certificate, or None.  complete_cells finds the cycles inside
    a non-universal cell."""
    found = _neighbourhood_cycle(P)
    if found is None:
        return None
    cyc, v, side = found
    return Certificate("DirectedCycle", {
        "cycle": [P.names[x] for x in cyc],
        "location": {"kind": side, "vertex": P.names[v]}})


def complete_cells(P):
    """Orient the inside of every non-universal cell transitively,
    keeping existing arcs.  Returns a Certificate when a cell already
    holds a directed cycle."""
    cs, universal = P.cells
    to_orient = []
    for k, cell in enumerate(cs):
        if k == universal or len(cell) < 2:
            continue
        order = topological_order(cell, P.out_nbrs.__getitem__)
        if order is None:
            cyc = find_directed_cycle(P, within=cell)
            return Certificate("DirectedCycle", {
                "cycle": [P.names[v] for v in cyc],
                "location": {"kind": "cell"}})
        for s in range(len(order)):
            for t in range(s + 1, len(order)):
                if _norm(order[s], order[t]) in P.edges:
                    to_orient.append((order[s], order[t]))
    return P.orient(to_orient)


# -- completion --------------------------------------------------------


def _merge_arc_parts(P):
    """Locally transitive tournament completing a friendly partially
    oriented complete graph without a forbidden cycle."""
    if P.n == 0:
        return P
    # arc-connectivity parts: every aux component of a complete pog is
    # thin, so no triangle of a friendly one holds exactly two arcs, and
    # each part is a tournament
    parts = Pog._trusted(P.names, frozenset(), P.arcs).ug_components
    return _ltt_of_parts(P, parts)


def complete_friendly(P):
    """Complete a friendly pog to a locally transitive local tournament,
    or return a refuting certificate."""
    ok, cert = is_friendly(P)
    if not ok:
        raise NotFriendlyError("pog is not friendly", cert)
    comps = P.ug_components
    if len(comps) > 1:
        arcs = set()
        for comp in comps:
            sub = complete_friendly(P.induced(comp))
            if isinstance(sub, Certificate):
                return sub
            arcs.update((P.index[sub.names[i]], P.index[sub.names[j]])
                        for i, j in sub.arcs)
        return Pog(P.names, frozenset(), frozenset(arcs))

    P1 = complete_cells(P)  # after is_friendly, so P1 shares P's aux view
    if isinstance(P1, Certificate):
        return P1
    cert = forbidden_cycle(P)
    if cert is not None:
        return cert
    col = two_colour(build_aux(P))
    if isinstance(col, Certificate):
        return col
    if _is_complete(P):
        return _merge_arc_parts(P)

    bar = complement_components(P)
    if len(bar) == 1:
        D = complete_via_aux(P1)
        if isinstance(D, Certificate):
            raise InvariantError("friendly pog lost orientability")
        return D
    return _complete_split_complement(P, P1, bar)


def _complement_sides(P, bar):
    """The bipartition of each complement component C, in C's order and
    C[0] on the first side, read off the aux colours: r in another
    component is adjacent to all of C, and (r, x) ~ (r, y) for every
    non-adjacent x, y in C."""
    X = build_aux(P)
    sides = []
    for a, C in enumerate(bar):
        r = bar[a - 1][0]
        col = [X.colours[X.vid[r, x]] for x in C]
        sides.append((tuple(x for x, c in zip(C, col) if c == col[0]),
                      tuple(x for x, c in zip(C, col) if c != col[0])))
    return sides


def _complete_split_complement(P, P1, bar):
    """The complement has q >= 2 components: orient inner thick
    components by colour class, then cross edges by a locally
    transitive tournament on the representatives."""
    cur = consentaneous_closure(P1)
    if isinstance(cur, Certificate):
        raise InvariantError("closure failed on a friendly pog")
    # leftover unbalanced edges inside a component take the red class
    X, side = build_aux(cur), {v: k for k, C in enumerate(bar) for v in C}
    leftovers = []
    for c, members in enumerate(X.comp_members):
        if X.is_thin(c) or any(X.verts[k] in cur.arcs for k in members):
            continue
        leftovers.extend((i, j) for i, j in X.class_pairs(c, 0)
                         if _norm(i, j) in cur.edges and side[i] == side[j])
    cur = cur.orient(leftovers)

    reps = [C[0] for C in bar]
    K = cur.induced(reps)
    R = complete_friendly(K)
    if isinstance(R, Certificate):
        raise InvariantError("representative tournament hit a forbidden triangle")
    sides = _complement_sides(P, bar)
    adds = []
    for a in range(len(bar)):
        for b in range(len(bar)):
            if a == b:
                continue
            sa, sb = reps[a], reps[b]
            if (R.index[cur.names[sa]], R.index[cur.names[sb]]) not in R.arcs:
                continue
            Sa, Ta = sides[a]
            Sb, Tb = sides[b]
            for U, W in ((Sa, Sb), (Sb, Ta), (Ta, Tb), (Tb, Sa)):
                for u in U:
                    for w in W:
                        if _norm(u, w) in cur.edges:
                            adds.append((u, w))
                        elif (w, u) in cur.arcs:
                            raise InvariantError(
                                "existing arc disagrees with the cross pattern")
    return cur.orient(adds)


# -- circular-arc representation extension ------------------------------


def extend_circular_arc_representation(G, partial=None):
    """Extend a proper circular-arc representation of an induced
    subgraph H to all of G, preserving the induced orientation on H.
    Returns a Representation or a refuting certificate; with no partial
    representation this is plain recognition.

    A disconnected graph is proper circular-arc exactly when every
    component is proper interval (see representation_from_orientation).
    A connected one orients its cells, closes under the aux graph and
    completes the friendly pog that results."""
    split = len(G.ug_components) > 1  # read before P0 is made, to share
    P0 = G.underlying_graph() if partial is None else _orient_window(G, partial)
    if split:
        D = complete_to_acyclic_lt(P0)
    else:
        P1 = complete_cells(P0)
        if isinstance(P1, Certificate):
            return P1
        P2 = consentaneous_closure(P1)
        if isinstance(P2, Certificate):
            return P2
        try:
            D = complete_friendly(P2)
        except NotFriendlyError as exc:
            raise InvariantError("extension pog is not friendly: %s"
                                 % exc.certificate.tag) from None
    if isinstance(D, Certificate):
        return D
    if not P0.arcs <= D.arcs:
        raise InvariantError("completion dropped an induced-orientation arc")
    return representation_from_orientation(D, "circular")
