"""3-SAT machinery: gadgets, the reduction, and an exact solver.

The reduction turns a 3-CNF formula into a partially oriented graph
whose oriented part has an excellent cyclic ordering exactly when the
formula is satisfiable.  The exact solver enumerates the locally
transitive tournament completions of small instances by backtracking:
the one target with no polynomial decider in the package, which also
decides whether an oriented graph has an excellent cyclic ordering.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .errors import (InvariantError, NotSatisfyingError, ParseError,
                     SizeGuardError, UnsupportedInstanceError)
from .graph import topological_order
from .pog import (Ordering, Pog, _is_complete, _neighbourhood_cycle, _Record,
                  complete_closure, require_oriented)
from .rounds import _ltt_ordering, check_ordering

MAX_SEARCH_EDGES = 22
MAX_EXCELLENT_VERTICES = 12


# -- CNF formulas --------------------------------------------------------


class CnfFormula(_Record):
    n_vars: int
    clauses: tuple  # tuples of three signed 1-based variable indices

    def __post_init__(self):
        for cl in self.clauses:
            if len(cl) != 3:
                raise ParseError("clause width must be 3, got %d" % len(cl))
            if any(not isinstance(l, int) or l == 0 for l in cl):
                raise ParseError("literals must be non-zero integers")
            if any(abs(l) > self.n_vars for l in cl):
                raise ParseError("literal out of range in %r" % (cl,))
            if len({abs(l) for l in cl}) != 3:
                raise ParseError("variable repeated within clause %r" % (cl,))

    def satisfied_by(self, t):
        """t maps 1-based variable index to bool."""
        return all(any(t[abs(l)] == (l > 0) for l in cl)
                   for cl in self.clauses)


def as_assignment(t, n_vars):
    """Normalise a mapping into {1..n: bool}."""
    out = {int(k): bool(v) for k, v in t.items()}
    if sorted(out) != list(range(1, n_vars + 1)):
        raise NotSatisfyingError("assignment must cover variables 1..%d"
                                 % n_vars)
    return out


def parse_dimacs(text):
    n_vars = None
    lits = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if (len(parts) != 4 or parts[1] != "cnf"
                    or not all(p.isdecimal() for p in parts[2:])):
                raise ParseError("bad problem line", lineno)
            if n_vars is not None:
                raise ParseError("duplicate problem line", lineno)
            n_vars, n_clauses = int(parts[2]), int(parts[3])
            continue
        if n_vars is None:
            raise ParseError("clause before problem line", lineno)
        try:
            lits.extend(int(tok) for tok in line.split())
        except ValueError:
            raise ParseError("bad literal in %.60r" % line, lineno) from None
    if n_vars is None:
        raise ParseError("missing problem line")
    clauses = []
    cur = []
    for l in lits:
        if l == 0:
            clauses.append(tuple(cur))
            cur = []
        else:
            cur.append(l)
    if cur:
        raise ParseError("last clause not terminated by 0")
    if len(clauses) != n_clauses:
        raise ParseError("expected %d clauses, found %d"
                         % (n_clauses, len(clauses)))
    return CnfFormula(n_vars, tuple(clauses))


def render_dimacs(F):
    lines = ["p cnf %d %d" % (F.n_vars, len(F.clauses))]
    lines.extend(" ".join(str(l) for l in cl) + " 0" for cl in F.clauses)
    return "\n".join(lines) + "\n"


# -- gadgets --------------------------------------------------------------


def gadget(kind):
    """The three building blocks of the reduction.

    X and Xbar are partially oriented K4's with exactly two locally
    transitive completions each, coupling the ab (uv) edge to the
    alpha-beta edge.  Wheel is a hub dominating a 6-cycle whose three
    undirected rim edges play the role of one clause's literals.
    """
    if kind == "X":
        return Pog.build(("a", "b", "alpha", "beta"),
                         edges=[("a", "b"), ("alpha", "beta")],
                         arcs=[("a", "alpha"), ("a", "beta"),
                               ("alpha", "b"), ("b", "beta")])
    if kind == "Xbar":
        return Pog.build(("u", "v", "alpha", "beta"),
                         edges=[("u", "v"), ("alpha", "beta")],
                         arcs=[("v", "alpha"), ("v", "beta"),
                               ("alpha", "u"), ("u", "beta")])
    if kind == "Wheel":
        rim = ("c11", "c12", "c21", "c22", "c31", "c32")
        arcs = [("c", r) for r in rim]
        arcs += [("c12", "c21"), ("c22", "c31"), ("c32", "c11")]
        edges = [("c11", "c12"), ("c21", "c22"), ("c31", "c32")]
        return Pog.build(("c",) + rim, edges=edges, arcs=arcs)
    raise ValueError("unknown gadget kind %r" % kind)


# -- the reduction --------------------------------------------------------


class ReductionInstance(_Record):
    formula: CnfFormula
    pog: Pog              # the partially oriented graph H'
    oriented: Pog         # H = H' with the unoriented edges dropped
    name_map: dict        # vertex name -> role tuple
    var_names: tuple      # per variable i: (alpha, beta)
    pos_names: tuple      # per variable i: ((a, b) per positive occurrence)
    neg_names: tuple      # per variable i: ((u, v) per negative occurrence)
    hub_names: tuple      # per clause j: hub name
    clause_slots: tuple   # per clause j: ((c1, c2, literal) per slot)


def build_reduction(F):
    """The 3-SAT reduction instance for F.

    One shared alpha/beta pair per variable, one X copy per positive
    occurrence, one Xbar copy per negative occurrence, one wheel per
    clause with its rim identified with the occurrence vertices.
    """
    n = F.n_vars
    m = len(F.clauses)
    occ = Counter()
    for cl in F.clauses:
        occ.update(cl)
    for i in range(1, n + 1):
        if occ[i] + occ[-i] == 0:
            raise ParseError("variable x%d occurs in no clause" % i)

    names = []
    name_map = {}

    def declare(name, role):
        names.append(name)
        name_map[name] = role

    var_names, pos_names, neg_names = [], [], []
    for i in range(1, n + 1):
        al, be = "alpha.x%d" % i, "beta.x%d" % i
        declare(al, ("alpha", i))
        declare(be, ("beta", i))
        var_names.append((al, be))
        pos, neg = [], []
        for h in range(1, occ[i] + 1):
            a, b = "a.x%d.%d" % (i, h), "b.x%d.%d" % (i, h)
            declare(a, ("a", i, h))
            declare(b, ("b", i, h))
            pos.append((a, b))
        for t in range(1, occ[-i] + 1):
            u, v = "u.x%d.%d" % (i, t), "v.x%d.%d" % (i, t)
            declare(u, ("u", i, t))
            declare(v, ("v", i, t))
            neg.append((u, v))
        pos_names.append(tuple(pos))
        neg_names.append(tuple(neg))
    hub_names = []
    for j in range(1, m + 1):
        hub = "hub.c%d" % j
        declare(hub, ("hub", j))
        hub_names.append(hub)

    edges, arcs = [], []
    for i in range(1, n + 1):
        al, be = var_names[i - 1]
        edges.append((al, be))
        for a, b in pos_names[i - 1]:
            arcs += [(a, al), (a, be), (al, b), (b, be)]
            edges.append((a, b))
        for u, v in neg_names[i - 1]:
            arcs += [(v, al), (v, be), (al, u), (u, be)]
            edges.append((u, v))

    seen_pos = Counter()
    seen_neg = Counter()
    clause_slots = []
    for j, cl in enumerate(F.clauses, start=1):
        slots = []
        for l in cl:
            r = abs(l)
            if l > 0:
                seen_pos[r] += 1
                c1, c2 = pos_names[r - 1][seen_pos[r] - 1]
            else:
                seen_neg[r] += 1
                c1, c2 = neg_names[r - 1][seen_neg[r] - 1]
            slots.append((c1, c2, l))
        hub = hub_names[j - 1]
        arcs += [(hub, c) for c1, c2, _ in slots for c in (c1, c2)]
        # rim arcs c12->c21, c22->c31, c32->c11; rim edges are the
        # already present occurrence edges
        arcs += [(slots[0][1], slots[1][0]), (slots[1][1], slots[2][0]),
                 (slots[2][1], slots[0][0])]
        clause_slots.append(tuple(slots))

    P = Pog.build(tuple(names), edges=edges, arcs=arcs)
    H = Pog._trusted(P.names, frozenset(), P.arcs)
    R = ReductionInstance(F, P, H, name_map, tuple(var_names),
                          tuple(pos_names), tuple(neg_names),
                          tuple(hub_names), tuple(clause_slots))
    _check_reduction(R, n, m)
    return R


def _check_reduction(R, n, m):
    P, H = R.pog, R.oriented
    if P.n != 2 * n + 2 * (3 * m) + m:
        raise InvariantError("reduction has %d vertices, expected %d"
                             % (P.n, 2 * n + 7 * m))
    seen = set()
    for j, slots in enumerate(R.clause_slots):
        w = {R.hub_names[j]}
        for c1, c2, _ in slots:
            w.add(c1)
            w.add(c2)
        if not seen.isdisjoint(w):
            raise InvariantError("wheels share a vertex after identification")
        seen |= w
    found = _neighbourhood_cycle(H)
    if found is not None:
        raise InvariantError("neighbourhood of %s is not acyclic"
                             % H.names[found[1]])


def orient_by_assignment(R, t):
    """The orientation of the reduction pog induced by an assignment:
    the variable edge and every occurrence edge of x_i follow t[x_i]."""
    pairs = []
    for i in range(1, R.formula.n_vars + 1):
        al, be = R.var_names[i - 1]
        pairs.append((be, al) if t[i] else (al, be))
        for a, b in R.pos_names[i - 1]:
            pairs.append((b, a) if t[i] else (a, b))
        for u, v in R.neg_names[i - 1]:
            pairs.append((u, v) if t[i] else (v, u))
    idx = R.pog.index
    D = R.pog.orient([(idx[p], idx[q]) for p, q in pairs])
    require_oriented(D)
    return D


def _ordering_for_assignment(R, D, t):
    """Excellent cyclic ordering of D = orient_by_assignment(R, t), or
    None when none exists.

    Existence is governed by a precedence digraph Z on the occurrence
    copies, the betas, and the alphas of false variables: the induced
    arcs of D, plus a pair (out-copy, in-copy) for each true variable
    forcing all its alpha-out copies before its alpha-in copies.  When Z
    is acyclic the layout

        [alphas of true variables] [hubs] [topological order of Z]

    works, the alpha block sorted so that alpha(x) precedes alpha(y)
    whenever an out-copy of y lands after an in-copy (or the beta) of x.
    The only arcs wrapping past the seam are then copy->alpha and
    beta->alpha arcs of true variables, and each such head alpha(x)
    precedes every wrapped tail's successor block, which is exactly what
    the excellence condition needs at the seam."""
    idx = R.pog.index
    n = R.formula.n_vars
    outs, ins = {}, {}
    nodes = set()
    succ = {}
    for i in range(1, n + 1):
        al, be = R.var_names[i - 1]
        outs[i] = [idx[b] for _, b in R.pos_names[i - 1]]
        outs[i] += [idx[u] for u, _ in R.neg_names[i - 1]]
        ins[i] = [idx[a] for a, _ in R.pos_names[i - 1]]
        ins[i] += [idx[v] for _, v in R.neg_names[i - 1]]
        nodes.update(outs[i])
        nodes.update(ins[i])
        nodes.add(idx[be])
        if not t[i]:
            nodes.add(idx[al])
    for v in nodes:
        succ[v] = set()
    for u, v in D.arcs:
        if u in nodes and v in nodes:
            succ[u].add(v)
    for i in range(1, n + 1):
        if t[i]:
            for o in outs[i]:
                succ[o].update(ins[i])
    order = topological_order(nodes, succ.__getitem__)
    if order is None:
        return None
    pos = {v: k for k, v in enumerate(order)}

    true_idx = [i for i in range(1, n + 1) if t[i]]
    asucc = {i: set() for i in true_idx}
    for x in true_idx:
        floor = min([pos[s] for s in ins[x]]
                    + [pos[idx[R.var_names[x - 1][1]]]])
        for y in true_idx:
            if y != x and any(pos[o] > floor for o in outs[y]):
                asucc[x].add(y)
    ablock = topological_order(true_idx, asucc.__getitem__)
    if ablock is None:
        raise InvariantError("alpha block precedence is cyclic")

    seq = [idx[R.var_names[i - 1][0]] for i in ablock]
    seq += [idx[h] for h in R.hub_names]
    seq += order
    return Ordering("cyclic", tuple(seq))


def assignment_to_ordering(R, t):
    """An excellent cyclic ordering certifying a satisfying assignment.

    The assignment orients every undecided edge, and the vertices are
    laid out around the hub block so that every occurrence copy respects
    its alpha transits.  Not every satisfying assignment induces an
    orientation that admits such an ordering; when the given one does
    not, the nearest satisfying assignment (by flips) whose orientation
    does is used instead.  Raises UnsupportedInstanceError when no
    satisfying assignment works at all, which happens for formulas
    whose clause structure chains forced-false occurrence copies into a
    cycle.
    """
    F = R.formula
    t = as_assignment(t, F.n_vars)
    if not F.satisfied_by(t):
        raise NotSatisfyingError("assignment does not satisfy the formula")

    for t2 in _assignments_near(t, F.n_vars):
        if not F.satisfied_by(t2):
            continue
        D = orient_by_assignment(R, t2)
        O = _ordering_for_assignment(R, D, t2)
        if O is None:
            continue
        ok, wit = check_ordering(D, O, "excellent")
        if not ok:
            raise InvariantError("constructed ordering is not excellent: %r"
                                 % (wit,))
        return O
    raise UnsupportedInstanceError(
        "no satisfying assignment of this formula induces an orientation "
        "with an excellent cyclic ordering")


def _assignments_near(t, n):
    """The given assignment, then others in order of flip distance.
    Exhaustive for small n, single and double flips only beyond that."""
    yield dict(t)
    if n <= 16:
        keys = sorted(t)
        for dist in range(1, n + 1):
            for flip in itertools.combinations(keys, dist):
                yield {k: (not t[k] if k in flip else t[k]) for k in keys}
    else:
        keys = sorted(t)
        for flip in itertools.chain(
                itertools.combinations(keys, 1),
                itertools.combinations(keys, 2)):
            yield {k: (not t[k] if k in flip else t[k]) for k in keys}


# -- exact backtracking solver -------------------------------------------


def _search_completions(P, want_all):
    """All locally transitive tournament completions of P (only the
    first unless `want_all`), as (arc frozenset, round ordering) pairs
    sorted by their sorted arcs.  Exhaustive backtracking, most
    constrained edge first.  Every pair is adjacent, so each completion
    is a tournament, locally transitive when no neighbourhood holds a
    directed cycle: P's arcs are tested once, and a chosen arc is
    pruned when it closes a directed triangle inside a neighbourhood.
    So every leaf is locally transitive, or round (Huang), and has a
    round ordering (`rounds._ltt_ordering`), whose runs of twins are
    its Moon parts."""
    if not _is_complete(P) or _neighbourhood_cycle(P) is not None:
        return []
    n = P.n
    out = [set(P.out_nbrs[v]) for v in range(n)]
    inn = [set(P.in_nbrs[v]) for v in range(n)]
    edges = sorted(P.edges)
    found = []
    chosen = []

    def pick():
        return max(range(len(edges)),
                   key=lambda k: (-1e9 if edges[k] is None else
                                  len(out[edges[k][0]]) + len(inn[edges[k][0]])
                                  + len(out[edges[k][1]]) + len(inn[edges[k][1]])))

    def rec():
        if len(chosen) == len(edges):
            D = Pog._trusted(P.names, frozenset(),
                             P.arcs | frozenset(chosen), like=P)
            O = _ltt_ordering(D)
            if O is None:
                raise InvariantError("an ltt search leaf is not round")
            found.append((D.arcs, O))
            return not want_all
        k = pick()
        i, j = edges[k]
        edges[k] = None
        for u, v in ((i, j), (j, i)):
            if not _triangle_in_neighbourhood(out, inn, u, v):
                out[u].add(v)
                inn[v].add(u)
                chosen.append((u, v))
                done = rec()
                chosen.pop()
                out[u].discard(v)
                inn[v].discard(u)
                if done:
                    edges[k] = (i, j)
                    return True
        edges[k] = (i, j)
        return False

    rec()
    return sorted(found, key=lambda f: sorted(f[0]))


def _triangle_in_neighbourhood(out, inn, u, v):
    """Does adding arc u->v create a directed triangle lying entirely in
    the out- or in-neighbourhood of some vertex?"""
    for w in out[v] & inn[u]:
        tri = (u, v, w)
        for z_set in (inn[u] & inn[v] & inn[w], out[u] & out[v] & out[w]):
            if z_set - set(tri):
                return True
    # v joined out(u): a triangle v->x->y->v inside out(u)
    for x in out[v] & out[u]:
        for y in inn[v] & out[u]:
            if y in out[x]:
                return True
    # u joined in(v): a triangle u->x->y->u inside in(v)
    for x in out[u] & inn[v]:
        for y in inn[u] & inn[v]:
            if y in out[x]:
                return True
    return False


def exact_complete(P, target, enumerate_all=False):
    """Exhaustive completion search on small instances.

    Target "ltt" searches locally transitive tournament completions of
    P and returns a list of them (Pogs) when enumerate_all is set,
    otherwise the first one or None.  Target "excellent_ordering" runs
    the same search on the non-adjacency closure of an oriented P and
    returns cyclic orderings instead.  Any other target raises
    ValueError: the other classes have polynomial deciders.
    """
    if target == "excellent_ordering":
        return _excellent_search(P, enumerate_all)
    if target != "ltt":
        raise ValueError("unknown target %r" % (target,))
    if len(P.edges) > MAX_SEARCH_EDGES:
        raise SizeGuardError("MAX_SEARCH_EDGES", MAX_SEARCH_EDGES,
                             len(P.edges), "unoriented edges")
    found = _search_completions(P, enumerate_all)
    sols = [Pog._trusted(P.names, frozenset(), a, like=P) for a, _ in found]
    if enumerate_all:
        return sols
    return sols[0] if sols else None


def _excellent_search(P, enumerate_all):
    require_oriented(P)
    if P.n > MAX_EXCELLENT_VERTICES:
        raise SizeGuardError("MAX_EXCELLENT_VERTICES", MAX_EXCELLENT_VERTICES,
                             P.n, "vertices")
    orderings = []
    seen = set()
    for _, O in _search_completions(complete_closure(P), enumerate_all):
        ok, wit = check_ordering(P, O, "excellent")
        if not ok:
            raise InvariantError("derived ordering is not excellent: %r"
                                 % (wit,))
        if O.seq not in seen:
            seen.add(O.seq)
            orderings.append(O)
    if enumerate_all:
        return orderings
    return orderings[0] if orderings else None
