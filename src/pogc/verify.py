"""Certificate checking: `verify_certificate` decides whether a
certificate's payload exhibits, in a pog, the obstruction its tag claims."""

from __future__ import annotations

from .auxgraph import aux_adjacent, consentaneous_closure
from .completions import complete_to_cycle_factor_bruteforce
from .graph import _separates
from .hardness import exact_complete
from .pog import Certificate, Ordering, _norm
from .rounds import check_ordering


def _is_names(names):
    """True for a JSON list of strings, the one form of a names field."""
    return isinstance(names, list) and all(isinstance(v, str) for v in names)


def _ids(P, names):
    """The vertices a names field lists, or None when it is not a list
    of P's vertex names."""
    if not _is_names(names):
        return None
    try:
        return [P.index[v] for v in names]
    except KeyError:
        return None


def verify_certificate(P, cert):
    """Check a certificate against a pog.  Returns True iff the payload
    really exhibits the claimed obstruction in P."""
    try:
        return _verify(P, cert)
    except (KeyError, TypeError, ValueError, IndexError):
        return False


def _verify(P, cert):
    tag, pay = cert.tag, cert.payload

    if tag == "NonAdjacentPair":
        ids = _ids(P, pay["pair"])
        return ids is not None and len(ids) == 2 and ids[0] != ids[1] \
            and not P.adjacent(ids[0], ids[1])

    if tag == "DirectedCycle":
        ids = _ids(P, pay["cycle"])
        if not ids or len(ids) < 2 or len(set(ids)) != len(ids):
            return False
        k = len(ids)
        loc = pay.get("location")
        kind = None if loc is None else loc["kind"]
        host = P
        if kind == "closure":
            # the cycle lives in the consentaneous closure, not in P itself
            host = consentaneous_closure(P)
            if isinstance(host, Certificate):
                return False
        if any((ids[t], ids[(t + 1) % k]) not in host.arcs for t in range(k)):
            return False
        if kind is None or kind == "closure":
            return True
        if kind in ("out", "in"):
            v = P.index[loc["vertex"]]
            hood = P.out_nbrs[v] if kind == "out" else P.in_nbrs[v]
            return all(x in hood for x in ids)
        if kind == "cell":
            cell = set(ids) | set(_ids(P, loc.get("cell", pay["cycle"])))
            closed = {v: P.adj[v] | {v} for v in cell}
            ref = closed[min(cell)]
            if any(nb != ref for nb in closed.values()):
                return False
            return len(ref) < P.n  # must not be the universal cell
        return False

    if tag == "Bridge":
        ids = _ids(P, pay["edge"])
        if ids is None or len(ids) != 2 or not P.adjacent(ids[0], ids[1]):
            return False
        return _separates(P.adj.__getitem__, *ids)

    if tag == "DirectedCut":
        ids = _ids(P, pay["side"])
        if ids is None or not ids or len(set(ids)) != len(ids):
            return False
        side = set(ids)
        if len(side) >= P.n:
            return False
        for u in side:
            for w in P.adj[u]:
                if w not in side and (u, w) not in P.arcs:
                    return False
        return True

    if tag in ("OddClosedWalkAux", "OrientationConflict"):
        mode = pay.get("mode", "local_tournament")
        if not isinstance(pay["walk"], list):
            return False
        walk = [tuple(_ids(P, step)) for step in pay["walk"]]
        for u, v in walk:
            if not P.adjacent(u, v):
                return False
        for a, b in zip(walk, walk[1:]):
            if not aux_adjacent(P, a, b, mode):
                return False
        if tag == "OddClosedWalkAux":
            return walk[0] == walk[-1] and len(walk) % 2 == 0 and len(walk) > 1
        kind = pay.get("kind", "odd_pair")
        steps = len(walk) - 1
        if walk[0] not in P.arcs:
            return False
        if kind == "odd_pair":
            return walk[-1] in P.arcs and steps % 2 == 1
        if kind == "unoriented_mate":
            return _norm(*walk[-1]) in P.edges and steps % 2 == 0
        return False

    if tag == "BadTriple":
        ids = _ids(P, pay["triple"])
        if ids is None or len(set(ids)) != 3:
            return False
        x, y, z = ids
        pairs = [_norm(x, y), _norm(y, z), _norm(x, z)]
        if any(p not in P.und_pairs for p in pairs):
            return False
        oriented = sum(1 for p in pairs if p not in P.edges)
        if oriented != 2:
            return False
        # one search from each pair, a step of each in turn: one that
        # meets another pair (a component holds its pairs both ways) shows
        # two share a component, and once two have run out the three are
        # apart, so this costs at most 3 times the second smallest one
        searches = {p: _aux_search(P, p) for p in pairs}
        while len(searches) > 1:
            for p, s in list(searches.items()):
                q = next(s, None)
                if q is None:
                    del searches[p]
                elif _norm(*q) != p and _norm(*q) in pairs:
                    return False
        return True

    if tag == "NotChordal":
        return _verify_obstruction(P, pay)

    if tag == "OrderingViolation":
        ids = _ids(P, pay["ordering"]["seq"])
        if ids is None or sorted(ids) != list(range(P.n)):
            return False
        if pay["ordering"]["kind"] not in ("linear", "cyclic"):
            return False
        if pay["kind"] == "round" and not P.is_oriented():
            return False  # roundness is defined on oriented graphs only
        O = Ordering(pay["ordering"]["kind"], tuple(ids))
        ok, _ = check_ordering(P, O, pay["kind"])
        return not ok

    if tag == "NoCompletion":
        kind = pay["kind"]
        if kind == "two_sat_core":
            return _verify_implication_cycle(P, pay["cycle"])
        if kind == "hall":
            return pay["target"] == "cycle_factor" and _hall_deficient(
                P, pay["set"])
        if kind == "exhausted":
            target = pay["target"]
            if target == "cycle_factor":
                res = complete_to_cycle_factor_bruteforce(P)
                return isinstance(res, Certificate)
            if target == "ltt":
                return exact_complete(P, "ltt") is None
        return False

    return False


def _aux_search(P, pair):
    """The component of an adjacent pair in the local-tournament aux graph
    of UG(P), in BFS order from it.  The aux neighbours of (u, v) are among
    its reverse, (u, w) and (w, v) for w in N(u) or N(v): `aux_adjacent`
    picks them out, so no aux graph is built."""
    seen, queue = {pair}, [pair]
    for u, v in queue:  # grows while it is read
        yield u, v
        for q in [(v, u)] + [(u, w) for w in P.adj[u]] + [(w, v) for w in P.adj[v]]:
            if q not in seen and aux_adjacent(P, (u, v), q):
                seen.add(q)
                queue.append(q)


def _implies(P, a, b):
    """True when the arc a forces the arc b in every in-tournament
    completion of P: b is the reverse of a and an arc of P, or a = (p, q)
    and b = (q, y) with y a neighbour of q that is neither p nor a
    neighbour of p, as p and y must not both point at q.  Either way b
    is an adjacent pair."""
    (p, q), (r, y) = a, b
    if (r, y) == (q, p):
        return b in P.arcs
    return r == q and y != p and P.adjacent(q, y) and not P.adjacent(p, y)


def _verify_implication_cycle(P, cycle):
    """A two_sat_core cycle: a closed walk of ordered pairs in which
    each step is one that `_implies` and some pair occurs both ways.  As
    the walk is closed, each of its pairs heads a step, so each is an
    adjacent pair.  O(walk)."""
    if not isinstance(cycle, list) or not all(map(_is_names, cycle)):
        return False
    walk = [tuple(_ids(P, step)) for step in cycle]
    seen = set(walk)
    return len(walk) > 1 and walk[0] == walk[-1] \
        and all(_implies(P, a, b) for a, b in zip(walk, walk[1:])) \
        and any((v, u) in seen for u, v in walk)


def _hall_deficient(P, names):
    """True when `names` lists distinct vertices S of P whose possible
    successors number fewer than |S|: the heads of arcs out of S and the
    other ends of edges at S.  A cycle factor of any completion gives
    each vertex of S its own successor among them.  O(n + m + |S|)."""
    ids = _ids(P, names)
    if not ids or len(set(ids)) != len(ids):
        return False
    S = set(ids)
    succ = {v for u, v in P.arcs if u in S}
    for u, v in P.edges:
        if u in S:
            succ.add(v)
        if v in S:
            succ.add(u)
    return len(succ) < len(S)


def _verify_obstruction(P, pay):
    """The induced-subgraph obstructions to proper interval graphs that
    the deciders emit: a hole or a tent."""
    ids = _ids(P, pay["vertices"])
    if ids is None or len(set(ids)) != len(ids):
        return False
    kind = pay["kind"]
    adj = lambda a, b: P.adjacent(a, b)
    if kind == "hole":
        # each hole vertex sees exactly its two cycle neighbours in the
        # hole: O(k + sum of degrees)
        k = len(ids)
        if k < 4:
            return False
        hole = set(ids)
        return all(P.adj[v] & hole == {ids[s - 1], ids[(s + 1) % k]}
                   for s, v in enumerate(ids))
    if kind == "tent":
        if len(ids) != 6:
            return False
        t, q = ids[:3], ids[3:]
        for s in range(3):
            for r in range(s + 1, 3):
                if not adj(t[s], t[r]) or adj(q[s], q[r]):
                    return False
        # q[s] sees exactly t[s] and t[(s+1) % 3]
        for s in range(3):
            for r in range(3):
                if adj(q[s], t[r]) != (r in (s, (s + 1) % 3)):
                    return False
        return True
    return False
