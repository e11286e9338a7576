"""Shared test helpers: brute-force oracles and random generators."""

import itertools

from pogc.pog import Ordering, Pog, _reach, classify
from pogc.rounds import check_ordering

MAX_NICE_VERTICES = 10


def names(n):
    return tuple("v%d" % k for k in range(n))


def all_graphs(n):
    """Every labelled simple graph on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = frozenset(p for k, p in enumerate(pairs) if (mask >> k) & 1)
        yield Pog(names(n), edges, frozenset())


def all_pogs(n):
    """Every labelled pog on n vertices: each pair is a non-adjacency,
    an edge, or an arc either way."""
    pairs = list(itertools.combinations(range(n), 2))
    for choice in itertools.product(range(4), repeat=len(pairs)):
        edges, arcs = set(), set()
        for c, (i, j) in zip(choice, pairs):
            if c == 1:
                edges.add((i, j))
            elif c == 2:
                arcs.add((i, j))
            elif c == 3:
                arcs.add((j, i))
        yield Pog(names(n), frozenset(edges), frozenset(arcs))


def random_graph(rng, n, p=0.5):
    edges = frozenset((i, j) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < p)
    return Pog(names(n), edges, frozenset())


def random_pog(rng, n, p_adj=0.6, p_arc=0.4):
    edges, arcs = set(), set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() >= p_adj:
                continue
            if rng.random() < p_arc:
                arcs.add((i, j) if rng.random() < 0.5 else (j, i))
            else:
                edges.add((i, j))
    return Pog(names(n), frozenset(edges), frozenset(arcs))


def orientations(P):
    """Every full orientation of P's edges."""
    edges = sorted(P.edges)
    for mask in range(1 << len(edges)):
        arcs = [(u, v) if not (mask >> k) & 1 else (v, u)
                for k, (u, v) in enumerate(edges)]
        yield P.orient(arcs)


def brute_force_completion(P, pred):
    """First full orientation whose classify report satisfies pred."""
    for D in orientations(P):
        if pred(classify(D)):
            return D
    return None


def _lt_ok(adj, out, inn, u, v):
    """Out(u) and in(v) stay adjacent to the new end of arc u->v."""
    return out[u] <= adj[v] and inn[v] <= adj[u]


# exact_oracle target -> (classify property every completion must have,
# a necessary condition of the class on a new arc u->v given the arcs
# already decided)
_ORACLE = {
    "local_tournament": ("local_tournament", _lt_ok),
    "ltlt": ("locally_transitive", _lt_ok),
    "in_tournament": ("in_tournament",
                      lambda adj, out, inn, u, v: inn[v] <= adj[u]),
    "quasi_transitive": ("quasi_transitive",
                         lambda adj, out, inn, u, v: (out[v] <= adj[u]
                                                      and inn[u] <= adj[v])),
    "acyclic_local_tournament": (
        "acyclic_local_tournament",
        lambda adj, out, inn, u, v: (_lt_ok(adj, out, inn, u, v)
                                     and u not in _reach(out.__getitem__, v))),
}


def exact_oracle(P, target):
    """First completion of P in the target class, or None.

    Reference for the polynomial completers: backtracks over P's arcs
    and then over sorted(P.edges), each edge both ways round, prunes an
    arc that breaks the target's rule on the arcs already decided, and
    judges every leaf with classify."""
    prop, ok = _ORACLE[target]
    adj = P.adj
    out = [set() for _ in range(P.n)]
    inn = [set() for _ in range(P.n)]
    steps = [[a] for a in sorted(P.arcs)]
    steps += [[(i, j), (j, i)] for i, j in sorted(P.edges)]
    chosen = []

    def rec(k):
        if k == len(steps):
            D = Pog(P.names, frozenset(), frozenset(chosen))
            return D if getattr(classify(D), prop) else None
        for u, v in steps[k]:
            if not ok(adj, out, inn, u, v):
                continue
            out[u].add(v)
            inn[v].add(u)
            chosen.append((u, v))
            D = rec(k + 1)
            chosen.pop()
            out[u].discard(v)
            inn[v].discard(u)
            if D is not None:
                return D
        return None

    return rec(0)


def assert_extends(P, D):
    assert D.is_oriented()
    assert P.arcs <= D.arcs
    assert D.und_pairs == P.und_pairs


def search_nice_ordering(D):
    """First nice cyclic ordering by brute force over the (n - 1)!
    cyclic orderings, or None."""
    assert D.is_oriented() and D.n <= MAX_NICE_VERTICES
    if D.n == 0:
        return Ordering("cyclic", ())
    for perm in itertools.permutations(range(1, D.n)):
        O = Ordering("cyclic", (0,) + perm)
        if check_ordering(D, O, "nice")[0]:
            return O
    return None
