"""Independent answer checks for the benchmark, written against the file
formats only.

Nothing here imports the package under test: a yes answer is judged by
re-deriving the class property from the printed output, so a defect in
the package's own `classify` or `check_ordering` cannot hide itself.
Every check returns None when the output is right and a short reason
when it is not.
"""

from __future__ import annotations


class Digraph:
    """Vertices by name, undirected edges as frozensets, arcs as tuples."""

    def __init__(self, names, edges=(), arcs=()):
        self.names = list(names)
        self.edges = {frozenset(e) for e in edges}
        self.arcs = set(arcs)
        self.adj = {v: set() for v in self.names}
        self.out = {v: set() for v in self.names}
        self.inn = {v: set() for v in self.names}
        for u, v in self.pairs():
            self.adj[u].add(v)
            self.adj[v].add(u)
        for u, v in self.arcs:
            self.out[u].add(v)
            self.inn[v].add(u)

    def pairs(self):
        """Underlying graph as a set of frozensets."""
        return self.edges | {frozenset(a) for a in self.arcs}


def parse_pog(text):
    names, seen, edges, arcs = [], set(), [], []

    def add(v):
        if v not in seen:
            seen.add(v)
            names.append(v)

    for line in text.splitlines():
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "v" and len(parts) == 2:
            add(parts[1])
        elif parts[0] in ("edge", "arc") and len(parts) == 3:
            add(parts[1])
            add(parts[2])
            (edges if parts[0] == "edge" else arcs).append((parts[1], parts[2]))
        else:
            raise ValueError("unparsable pog line %r" % line)
    return Digraph(names, edges, arcs)


# -- class properties ----------------------------------------------------


def _clique(D, members):
    members = list(members)
    for k, x in enumerate(members):
        for y in members[k + 1:]:
            if y not in D.adj[x]:
                return False
    return True


def _acyclic_within(D, members):
    """Kahn's algorithm on the arcs induced by `members`."""
    members = set(members)
    indeg = {v: len(D.inn[v] & members) for v in members}
    ready = [v for v in members if indeg[v] == 0]
    done = 0
    while ready:
        v = ready.pop()
        done += 1
        for w in D.out[v] & members:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return done == len(members)


def _reach(succ, s):
    seen, stack = {s}, [s]
    while stack:
        for w in succ[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def is_local_tournament(D):
    return all(_clique(D, D.out[v]) and _clique(D, D.inn[v]) for v in D.names)


def is_locally_transitive(D):
    return is_local_tournament(D) and all(
        _acyclic_within(D, D.out[v]) and _acyclic_within(D, D.inn[v])
        for v in D.names)


def is_tournament(D):
    n = len(D.names)
    return len(D.pairs()) == n * (n - 1) // 2


def is_in_tournament(D):
    return all(_clique(D, D.inn[v]) for v in D.names)


def is_strong(D):
    if len(D.names) <= 1:
        return True
    s = D.names[0]
    return (len(_reach(D.out, s)) == len(D.names)
            and len(_reach(D.inn, s)) == len(D.names))


def is_acyclic(D):
    return _acyclic_within(D, D.names)


CLASS_TESTS = {
    "lt": is_local_tournament,
    "acyclic-lt": lambda D: is_local_tournament(D) and is_acyclic(D),
    "ltlt-friendly": is_locally_transitive,
    "ltt-exact": lambda D: is_tournament(D) and is_locally_transitive(D),
    "transitive": lambda D: is_tournament(D) and is_acyclic(D),
    "in-tournament": is_in_tournament,
    "strong": is_strong,
}


def check_completion(inp, text, cls, factor=None):
    """A `complete` yes answer: oriented, same underlying graph, every
    input arc kept, and inside the class.  Cycle factors are judged by
    the planted factor `factor` (a successor map) whose arcs must all be
    present."""
    try:
        D = parse_pog(text)
    except ValueError as exc:
        return str(exc)
    if D.edges:
        return "completion leaves %d edges unoriented" % len(D.edges)
    if set(D.names) != set(inp.names):
        return "completion changes the vertex set"
    if D.pairs() != inp.pairs():
        return "completion changes the underlying graph"
    if not inp.arcs <= D.arcs:
        return "completion drops an input arc"
    if cls == "cycle-factor":
        if sorted(factor.values()) != sorted(factor) or any(
                (u, v) not in D.arcs for u, v in factor.items()):
            return "planted cycle factor is not in the completion"
        return None
    if not CLASS_TESTS[cls](D):
        return "completion is not in class %s" % cls
    return None


# -- representations -----------------------------------------------------


def parse_representation(text):
    spans, modulus, kind = {}, 0, None
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "iv" and len(parts) == 4:
            kind = "interval"
            spans[parts[1]] = (int(parts[2]), int(parts[3]))
        elif parts[0] == "ca" and len(parts) == 5:
            kind = "circular"
            spans[parts[1]] = (int(parts[2]), int(parts[3]))
            modulus = int(parts[4])
        else:
            raise ValueError("unparsable representation line %r" % line)
    return kind, spans, modulus


def _covers(kind, span, point, modulus):
    l, r = span
    if kind == "interval":
        return l <= point <= r
    return (point - l) % modulus <= (r - l) % modulus


def check_representation(G, text, want_kind, keep_order=None):
    """Proper representation of UG(G): spans intersect exactly on edges,
    no span strictly contains another, starts are distinct, and two
    circular arcs never cover the whole circle.  `keep_order` lists
    pairs (u, v) whose induced orientation u -> v the output must keep."""
    try:
        kind, spans, M = parse_representation(text)
    except ValueError as exc:
        return str(exc)
    if kind != want_kind:
        return "representation kind %s, want %s" % (kind, want_kind)
    if set(spans) != set(G.names):
        return "representation names differ from the graph"
    starts = [s[0] for s in spans.values()]
    if len(set(starts)) != len(starts):
        return "two spans share a start point"
    if kind == "interval" and any(l > r for l, r in spans.values()):
        return "interval with negative length"
    if kind == "circular" and any(not (0 <= x < M) for s in spans.values()
                                  for x in s):
        return "arc endpoint outside the circle"
    names = G.names
    for k, u in enumerate(names):
        su = spans[u]
        for v in names[k + 1:]:
            sv = spans[v]
            cu = _covers(kind, su, sv[0], M)
            cv = _covers(kind, sv, su[0], M)
            meet = cu or cv
            if meet != (v in G.adj[u]):
                return "intersection mismatch on %s,%s" % (u, v)
            if kind == "interval":
                if (su[0] < sv[0] and sv[1] < su[1]) or \
                        (sv[0] < su[0] and su[1] < sv[1]):
                    return "strict containment on %s,%s" % (u, v)
            else:
                lu = (su[1] - su[0]) % M
                lv = (sv[1] - sv[0]) % M
                a = (sv[0] - su[0]) % M
                b = (sv[1] - su[0]) % M
                c = (su[0] - sv[0]) % M
                d = (su[1] - sv[0]) % M
                if 0 < a <= b < lu or 0 < c <= d < lv:
                    return "strict containment on %s,%s" % (u, v)
                if cu and cv:
                    return "%s,%s cover the whole circle" % (u, v)
    for u, v in keep_order or ():
        if not _covers(kind, spans[u], spans[v][0], M):
            return "induced orientation %s->%s not kept" % (u, v)
    return None


# -- orderings -------------------------------------------------------------


def parse_ordering(text):
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "order":
            return parts[1], parts[2:]
    raise ValueError("no ordering line")


def is_excellent(arcs, seq):
    """No arc (s, t) lies backwards inside the cyclic span of an arc
    (i, j): with positions taken relative to i, never t < s <= j.

    Unrolling the cycle twice, an arc with tail at unrolled position x
    reaches back to x - d, d = (pos s - pos t) mod n.  A violation under
    arc (i, j) is a tail x in [p_i, p_i + span] whose head lands at or
    after p_i, so one range-maximum query per arc decides it:
    O((n + arcs) log n) instead of arcs squared."""
    n = len(seq)
    if n == 0:
        return True
    pos = {v: k for k, v in enumerate(seq)}
    if len(pos) != n:
        return False
    reach = [-1] * (2 * n)          # furthest-right head per tail position
    for s, t in arcs:
        d = (pos[s] - pos[t]) % n
        for x in (pos[s], pos[s] + n):
            if x - d > reach[x]:
                reach[x] = x - d
    table = [reach]
    width = 1
    while 2 * width <= 2 * n:
        prev = table[-1]
        table.append([max(prev[k], prev[k + width])
                      for k in range(2 * n - 2 * width + 1)])
        width *= 2
    for i, j in arcs:
        lo = pos[i]
        hi = lo + (pos[j] - pos[i]) % n
        level = (hi - lo + 1).bit_length() - 1
        row = table[level]
        if max(row[lo], row[hi - (1 << level) + 1]) >= lo:
            return False
    return True


def check_ordering_text(H, text):
    """An excellent cyclic ordering of the arcs of H, listing every vertex
    once."""
    try:
        kind, seq = parse_ordering(text)
    except ValueError as exc:
        return str(exc)
    if kind != "cyclic":
        return "ordering kind %s, want cyclic" % kind
    if sorted(seq) != sorted(H.names):
        return "ordering does not list every vertex once"
    if not is_excellent(H.arcs, seq):
        return "ordering is not excellent"
    return None
