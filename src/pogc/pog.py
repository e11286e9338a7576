"""Partially oriented graphs: data model, text formats, classification.

A pog has a vertex set, a set of undirected edges and a set of arcs.
Loops are forbidden, a pair of vertices carries at most one of
edge/arc, and there are no 2-cycles.  Vertices are kept as indices
into a name tuple; all stored pairs use indices.
"""

from __future__ import annotations

import json
import re
from functools import cached_property
from itertools import compress, repeat
from operator import attrgetter, eq, not_

from .errors import InvariantError, ParseError
from .graph import _components, _reach

_NAME = r"[A-Za-z0-9_.-]+"
NAME_RE = re.compile(_NAME + r"\Z")
# render_pog's layout: every declaration first, then the edge and arc
# lines, one space between tokens and every line ended by "\n"
_DECLS_RE = re.compile(r"(?:v %s\n)*" % _NAME)
_PAIRS_RE = re.compile(r"(?:(?:edge|arc) %s %s\n)*\Z" % (_NAME, _NAME))


def _norm(i, j):
    return (i, j) if i < j else (j, i)


class _Fresh:
    """A record field default made anew for each instance by `make()`."""
    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


class _Record:
    """Base of the immutable value types.  A subclass lists its fields
    as annotations, in order, each with an optional default (a `_Fresh`
    one is made per instance).  A record takes its fields by position
    or name and runs the subclass's `__post_init__` check; it compares
    and hashes by its field tuple, only with records of its own class;
    it prints as Name(field=value, ...); assigning or deleting any
    attribute raises AttributeError.  Fields and cached_property views
    live in `__dict__`.  No code is generated for a subclass."""
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls):
        own = cls.__dict__.get("__annotations__", {})
        cls._fields += tuple(own)
        cls._defaults = dict(cls._defaults)
        cls._defaults.update((k, cls.__dict__[k]) for k in own if k in cls.__dict__)
        cls._values = staticmethod(attrgetter(*cls._fields))

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs):
        """The field values of a call with keywords or defaults."""
        fields, values = cls._fields, dict(zip(cls._fields, args))
        if len(args) > len(fields):
            raise TypeError("%s takes %d fields" % (cls.__name__, len(fields)))
        for k, v in kwargs.items():
            if k not in fields or k in values:
                raise TypeError("%s: unexpected or repeated field %r" % (cls.__name__, k))
            values[k] = v
        for k in fields:
            if k not in values:
                if k not in cls._defaults:
                    raise TypeError("%s: missing field %r" % (cls.__name__, k))
                v = cls._defaults[k]
                values[k] = v.make() if isinstance(v, _Fresh) else v
        return [values[k] for k in fields]

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (k, self.__dict__[k]) for k in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


# the cached views of a pog that depend only on its names and its underlying
# graph (its aux graphs under "_aux"), which Pog._trusted may share
_UG_VIEWS = frozenset({"index", "und_pairs", "adj", "cells", "ug_components", "_aux"})


class Pog(_Record):
    names: tuple
    edges: frozenset  # unordered pairs (i, j) with i < j
    arcs: frozenset   # ordered pairs (i, j)

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise InvariantError("duplicate vertex names")
        for name in self.names:
            if not NAME_RE.match(name):
                raise InvariantError("bad vertex name %r" % (name,))
        self._check_pairs()

    @classmethod
    def _trusted(cls, names, edges, arcs, like=None):
        """A pog from parts the caller has already checked, such as the
        parts of a checked pog; no invariant is checked again.  `like`
        is a pog with the same names and the same underlying graph:
        those of its underlying-graph views it has already computed are
        shared, not computed again; its arc views and the witnesses of
        its class reports never are."""
        P = cls.__new__(cls)
        d = P.__dict__  # immutable: fill __dict__ directly, as cached_property does
        d["names"], d["edges"], d["arcs"] = names, edges, arcs
        if like is not None:
            d.update((k, v) for k, v in like.__dict__.items() if k in _UG_VIEWS)
        return P

    def _check_pairs(self):
        n = len(self.names)
        for i, j in self.edges:
            if not (0 <= i < j < n):
                raise InvariantError("bad edge %r" % ((i, j),))
        edges, arcs = self.edges, self.arcs
        for i, j in arcs:
            if i == j or not (0 <= i < n and 0 <= j < n):
                raise InvariantError("bad arc %r" % ((i, j),))
            if (j, i) in arcs:
                raise InvariantError("2-cycle on %s,%s" % (self.names[i], self.names[j]))
            if ((i, j) if i < j else (j, i)) in edges:
                raise InvariantError(
                    "edge and arc on the same pair %s,%s" % (self.names[i], self.names[j]))

    @classmethod
    def build(cls, names, edges=(), arcs=()):
        """Construct from name pairs instead of index pairs."""
        names = tuple(names)
        idx = {v: i for i, v in enumerate(names)}
        try:
            e = frozenset(_norm(idx[u], idx[v]) for u, v in edges)
            a = frozenset((idx[u], idx[v]) for u, v in arcs)
        except KeyError as exc:
            raise InvariantError("unknown vertex %s" % exc) from None
        return cls(names, e, a)

    # -- basic views ---------------------------------------------------

    @property
    def n(self):
        return len(self.names)

    @cached_property
    def index(self):
        return {v: i for i, v in enumerate(self.names)}

    @cached_property
    def und_pairs(self):
        """All adjacent pairs (i, j), i < j, whether edge or arc."""
        pairs = set(self.edges)
        pairs.update(_norm(i, j) for i, j in self.arcs)
        return frozenset(pairs)

    @cached_property
    def adj(self):
        nbr = [set() for _ in range(self.n)]
        for i, j in self.und_pairs:
            nbr[i].add(j)
            nbr[j].add(i)
        return tuple(frozenset(s) for s in nbr)

    @cached_property
    def out_nbrs(self):
        out = [set() for _ in range(self.n)]
        for i, j in self.arcs:
            out[i].add(j)
        return tuple(frozenset(s) for s in out)

    @cached_property
    def in_nbrs(self):
        inn = [set() for _ in range(self.n)]
        for i, j in self.arcs:
            inn[j].add(i)
        return tuple(frozenset(s) for s in inn)

    def adjacent(self, i, j):
        return _norm(i, j) in self.und_pairs if i != j else False

    def is_oriented(self):
        return not self.edges

    def underlying_graph(self):
        """Forget orientations: every adjacency becomes an edge."""
        return Pog._trusted(self.names, self.und_pairs, frozenset(), like=self)

    def orient(self, pairs):
        """Return a copy where each (i, j) in pairs becomes an arc.

        Each pair must currently be an edge; conflicting requests for
        the same edge are rejected.
        """
        chosen = {}
        for i, j in pairs:
            key = _norm(i, j)
            if key not in self.edges:
                raise InvariantError(
                    "cannot orient non-edge %s,%s" % (self.names[i], self.names[j]))
            if chosen.get(key, (i, j)) != (i, j):
                raise InvariantError(
                    "conflicting orientations for edge %s,%s" % (self.names[i], self.names[j]))
            chosen[key] = (i, j)
        return Pog._trusted(self.names, self.edges - set(chosen),
                            self.arcs | set(chosen.values()), like=self)

    def induced(self, verts):
        """Sub-pog induced by a set of vertex indices (names preserved)."""
        keep = sorted(set(verts))
        remap = {v: k for k, v in enumerate(keep)}
        e = frozenset((remap[i], remap[j]) for i, j in self.edges
                      if i in remap and j in remap)
        a = frozenset((remap[i], remap[j]) for i, j in self.arcs
                      if i in remap and j in remap)
        return Pog._trusted(tuple(self.names[v] for v in keep), e, a)

    @cached_property
    def ug_components(self):
        """Connected components of the underlying graph, each a sorted
        tuple, listed by smallest member."""
        return tuple(map(tuple, _components(range(self.n), self.adj.__getitem__)))

    @cached_property
    def cells(self):
        """(cells, universal): the maximal sets of vertices with equal
        closed neighbourhoods in UG, each a sorted tuple, listed by
        smallest member, and the index of the universal cell (the one
        adjacent to every other vertex) or None."""
        groups = {}
        for v, a in enumerate(self.adj):
            groups.setdefault(a | {v}, []).append(v)
        cs = tuple(sorted(map(tuple, groups.values())))
        n = self.n
        universal = next((k for k, g in enumerate(cs)
                          if n > 1 and len(self.adj[g[0]]) == n - 1), None)
        return cs, universal

    def ug_parts(self, seq):
        """The vertices of seq split by underlying component, one list
        per component in ug_components order, each in seq order."""
        comps = self.ug_components
        part_of = {v: c for c, comp in enumerate(comps) for v in comp}
        parts = [[] for _ in comps]
        for v in seq:
            parts[part_of[v]].append(v)
        return parts


class Ordering(_Record):
    """A linear or cyclic arrangement of all vertices of a pog."""
    kind: str                  # 'linear' or 'cyclic'
    seq: tuple                 # permutation of 0..n-1

    def __post_init__(self):
        if self.kind not in ("linear", "cyclic"):
            raise InvariantError("ordering kind must be linear or cyclic")
        if sorted(self.seq) != list(range(len(self.seq))):
            raise InvariantError("ordering is not a permutation")

    @cached_property
    def pos(self):
        return {v: k for k, v in enumerate(self.seq)}


class Certificate(_Record):
    """A machine-checkable refutation.  Payload uses vertex names."""
    tag: str
    payload: dict = _Fresh(dict)

    def to_json(self):
        return json.dumps({"tag": self.tag, "payload": self.payload},
                          sort_keys=True)

    @classmethod
    def from_json(cls, text):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError("invalid certificate JSON: %s" % exc)
        except RecursionError:
            raise ParseError("invalid certificate JSON: nested too deeply") from None
        if not isinstance(obj, dict) or "tag" not in obj:
            raise ParseError("certificate must be an object with a tag")
        payload = obj.get("payload", {})
        if not isinstance(payload, dict):
            raise ParseError("certificate payload must be an object")
        return cls(str(obj["tag"]), payload)


# -- text formats ------------------------------------------------------


def parse_pog(text):
    """Parse the native pog format.

    Lines: ``v NAME``, ``edge U V``, ``arc U V``; ``#`` starts a
    comment; blank lines are skipped.  Vertex order is first-mention
    order; edge/arc lines may introduce vertices.  Text in render_pog's
    layout is read column by column (_parse_rendered) and every other
    text line by line (_parse_lines); the result, or the error and its
    line, is the same either way.
    """
    P = _parse_rendered(text)
    return _parse_lines(text) if P is None else P


def _parse_rendered(text):
    """The pog of a text in render_pog's layout, or None for any other
    text.  One regex scan checks the layout and every name, str.split
    gives the columns and C-level passes map them to ids.  Anything
    that _parse_lines would reject gives None, so it alone raises: an
    undeclared name, a repeated declaration or a loop, whose error
    carries a line number, and a 2-cycle or an edge and an arc on one
    pair, found by set tests.  Pairs enter their frozensets in line
    order, as in _parse_lines, so the two give pogs that iterate alike."""
    k = _DECLS_RE.match(text).end()
    if not _PAIRS_RE.match(text, k):
        return None
    names = text[:k].split()[1::2]
    idx = dict(zip(names, range(len(names))))
    if len(idx) != len(names):
        return None
    tok = text[k:].split()
    try:
        us = list(map(idx.__getitem__, tok[1::3]))
        vs = list(map(idx.__getitem__, tok[2::3]))
    except KeyError:
        return None
    if any(map(eq, us, vs)):
        return None
    is_arc = list(map(eq, tok[::3], repeat("arc")))
    au, av = list(compress(us, is_arc)), list(compress(vs, is_arc))
    is_edge = list(map(not_, is_arc))
    arcs = frozenset(zip(au, av))
    edges = frozenset([(u, v) if u < v else (v, u)
                       for u, v in zip(compress(us, is_edge), compress(vs, is_edge))])
    if not arcs.isdisjoint(zip(av, au)) or edges and not (
            edges.isdisjoint(arcs) and edges.isdisjoint(zip(av, au))):
        return None
    return Pog._trusted(tuple(names), edges, arcs)


def _parse_lines(text):
    """Parse any native text one line at a time.  A name is checked
    against NAME_RE when first seen and looked up once per later
    mention, so parsing is O(lines + distinct names).  The first error
    in line order is the one reported."""
    names = []
    idx = {}
    edges = []
    arcs = []
    match = NAME_RE.match
    for ln, line in enumerate(text.splitlines(), 1):
        if "#" in line:
            line = line[:line.index("#")]
        parts = line.split()
        if not parts:
            continue
        d = parts[0]
        if d == "edge" or d == "arc":
            if len(parts) != 3:
                raise ParseError("expected '%s U V'" % d, ln)
            _, a, b = parts
            u = idx.get(a)
            if u is None:
                if not match(a):
                    raise ParseError("bad vertex name %.60r" % a, ln)
                u = idx[a] = len(names)
                names.append(a)
            v = idx.get(b)
            if v is None:
                if not match(b):
                    raise ParseError("bad vertex name %.60r" % b, ln)
                v = idx[b] = len(names)
                names.append(b)
            if u == v:
                raise ParseError("loop on %.60s" % a, ln)
            if d == "arc":
                arcs.append((u, v))
            else:
                edges.append((u, v) if u < v else (v, u))
        elif d == "v":
            if len(parts) != 2:
                raise ParseError("expected 'v NAME'", ln)
            a = parts[1]
            if a in idx:
                raise ParseError("vertex %.60s declared twice" % a, ln)
            if not match(a):
                raise ParseError("bad vertex name %.60r" % a, ln)
            idx[a] = len(names)
            names.append(a)
        else:
            raise ParseError("unknown directive %.60r" % d, ln)
    P = Pog._trusted(tuple(names), frozenset(edges), frozenset(arcs))
    try:
        P._check_pairs()  # the names were checked as they were read
    except InvariantError as exc:
        raise ParseError(str(exc))
    return P


def render_pog(P):
    names, n = P.names, P.n
    # pairs in (i, j) order, sorted as the integer keys i * n + j,
    # which sort faster than tuples
    edges, arcs = (sorted([i * n + j for i, j in pairs]) for pairs in (P.edges, P.arcs))
    out = ["v " + v for v in names]
    out += [f"edge {names[k // n]} {names[k % n]}" for k in edges]
    out += [f"arc {names[k // n]} {names[k % n]}" for k in arcs]
    return "\n".join(out) + ("\n" if out else "")


def parse_ordering(text, P):
    """Parse ``order cyclic|linear v1 v2 ... vn`` against a pog: one
    ordering line, with blank and comment lines around it."""
    O = None
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if O is not None:
            raise ParseError("expected one ordering line only", ln)
        parts = line.split()
        if parts[0] != "order" or len(parts) < 2:
            raise ParseError("expected 'order cyclic|linear ...'", ln)
        kind = parts[1]
        if kind not in ("cyclic", "linear"):
            raise ParseError("ordering kind must be cyclic or linear", ln)
        try:
            seq = tuple(P.index[v] for v in parts[2:])
        except KeyError as exc:
            raise ParseError("unknown vertex %s" % exc, ln)
        if sorted(seq) != list(range(P.n)):
            raise ParseError("ordering must list every vertex exactly once", ln)
        O = Ordering(kind, seq)
    if O is None:
        raise ParseError("no ordering found")
    return O


def render_ordering(O, P):
    return "order %s %s\n" % (O.kind, " ".join(P.names[v] for v in O.seq))


# -- classification ----------------------------------------------------


def find_directed_cycle(P, within=None):
    """Return a directed cycle of the arc digraph as a vertex list, or
    None.  `within` restricts to an induced vertex subset."""
    core = _cyclic_core(P, frozenset(range(P.n) if within is None else within))
    return _core_cycle(P, core) if core else None


def _core_cycle(P, core):
    """A directed cycle through a non-empty `_cyclic_core`.  Each of its
    vertices has a successor in it, so the walk from the smallest, each
    step to the smallest out-neighbour in it, repeats a vertex; the
    cycle runs from there."""
    out, at, walk = P.out_nbrs, {}, []
    v = min(core)
    while v not in at:
        at[v] = len(walk)
        walk.append(v)
        v = min(out[v] & core)
    return walk[at[v]:]


def _cyclic_core(P, S):
    """The vertices of the set S left by Kahn's peeling of sinks off the
    arcs of P inside S, none exactly when those arcs span no cycle.  A
    sink is found by one set test, and a vertex's count of arcs into S
    is taken once one of its successors has been peeled."""
    out, inn = P.out_nbrs, P.in_nbrs
    peeled = [x for x in S if out[x].isdisjoint(S)]
    if len(peeled) == len(S):
        return ()
    left = {}
    for v in peeled:  # grows while it is read
        for u in inn[v] & S:
            d = left.get(u)
            if d is None:
                d = len(out[u] & S)
            left[u] = d = d - 1
            if not d:
                peeled.append(u)
    return S.difference(peeled) if len(peeled) < len(S) else ()


def _nonadjacent_pairs(P, members):
    """The pairs x < y of members that are not adjacent in UG(P), in
    lexicographic order."""
    ms = sorted(members)
    for s, x in enumerate(ms):
        for y in ms[s + 1:]:
            if y not in P.adj[x]:
                yield x, y


def _is_complete(P):
    """True when UG(P) is complete: as each pair of UG(P) is one edge or
    one arc, and no arc has its reverse, when they number n(n - 1)/2."""
    return len(P.edges) + len(P.arcs) == P.n * (P.n - 1) // 2


def _is_clique(P, S):
    """True when the vertices of the set S are pairwise adjacent in UG(P)."""
    k = len(S) - 1
    return all(len(P.adj[x] & S) == k for x in S)


def _triangles(P):
    """The triangles a < b < c of UG(P), in lexicographic order."""
    for a in range(P.n):
        for b in sorted(P.adj[a]):
            if b <= a:
                continue
            for c in sorted(P.adj[a] & P.adj[b]):
                if c > b:
                    yield a, b, c


def _neighbourhoods(P):
    """(v, side, N^side(v)) for every vertex v in order, out side first."""
    for v in range(P.n):
        yield v, "out", P.out_nbrs[v]
        yield v, "in", P.in_nbrs[v]


def _neighbourhood_cycle(P):
    """The first directed cycle inside an out- or in-neighbourhood (in
    _neighbourhoods order) as (cycle, v, side), or None.  A pog has no
    loops or 2-cycles, so only hoods of 3 or more vertices are peeled;
    the cycle is walked only in the core of the first hood that fails."""
    for v, side, hood in _neighbourhoods(P):
        if len(hood) > 2 and (core := _cyclic_core(P, hood)):
            return _core_cycle(P, core), v, side
    return None


class _Check:
    """A PropertyReport property: True when `check(report)` finds no
    witness.  The check runs on the first read and its witness is kept."""

    def __init__(self, check):
        self.check, self.name = check, check.__name__

    def __get__(self, rep, owner=None):
        return self if rep is None else rep._witness(self.name) is None


class PropertyReport:
    """Class membership of one pog, each property judged on first read.

    Each check returns the lexicographically smallest witness against
    its property (vertex names), or None.  Neighbourhood checks use
    underlying-graph adjacency; strongness is judged on the arcs alone.
    """

    __slots__ = ("P", "_found")
    PROPERTIES = ("oriented", "tournament", "local_tournament",
                  "locally_transitive", "in_tournament", "quasi_transitive",
                  "acyclic", "strong")

    def __init__(self, P):
        self.P = P
        # property name -> witness or None, kept on P like its cached
        # views, so every report on P runs each check at most once
        self._found = P.__dict__.setdefault("_witnesses", {})

    def _witness(self, name):
        if name not in self._found:
            self._found[name] = getattr(PropertyReport, name).check(self)
        return self._found[name]

    def _names(self, verts):
        return tuple(self.P.names[v] for v in verts)

    @property
    def witnesses(self):
        """Witness against every failed property; runs every check."""
        return {name: self._witness(name) for name in self.PROPERTIES
                if not getattr(self, name)}

    @_Check
    def oriented(self):
        return self._names(min(self.P.edges)) if self.P.edges else None

    @_Check
    def tournament(self):
        if not self.oriented:
            return self._witness("oriented")
        if _is_complete(self.P):
            return None
        return self._names(next(_nonadjacent_pairs(self.P, range(self.P.n))))

    @_Check
    def local_tournament(self):
        for v, side, hood in _neighbourhoods(self.P):
            if not _is_clique(self.P, hood):
                pair = next(_nonadjacent_pairs(self.P, hood))
                return self._names(pair + (v,)) + (side,)
        return None

    @_Check
    def locally_transitive(self):  # locally transitive local tournament
        if not self.local_tournament:
            return self._witness("local_tournament")
        found = _neighbourhood_cycle(self.P)
        if found is None:
            return None
        cyc, v, side = found
        return self._names(cyc), self.P.names[v], side

    @_Check
    def in_tournament(self):
        for v, hood in enumerate(self.P.in_nbrs):
            if not _is_clique(self.P, hood):
                pair = next(_nonadjacent_pairs(self.P, hood))
                return self._names(pair + (v,))
        return None

    @_Check
    def quasi_transitive(self):
        P = self.P
        for x, y in sorted(P.arcs):
            for z in sorted(P.out_nbrs[y]):
                if z != x and not P.adjacent(x, z):
                    return self._names((x, y, z))
        return None

    @_Check
    def acyclic(self):
        cyc = find_directed_cycle(self.P)
        return None if cyc is None else self._names(cyc)

    @_Check
    def strong(self):
        """The smallest pair (s, t) such that s does not reach t.  A
        vertex that reaches 0 reaches everything 0 does, so s is 0 or
        else the smallest vertex that cannot reach 0, and then t is 0."""
        P = self.P
        if P.n <= 1:
            return None
        everyone = set(range(P.n))
        missed = everyone - _reach(P.out_nbrs.__getitem__, 0)
        if missed:
            return self._names((0, min(missed)))
        stuck = everyone - _reach(P.in_nbrs.__getitem__, 0)
        if stuck:
            return self._names((min(stuck), 0))
        return None

    transitive_tournament = property(lambda r: r.tournament and r.acyclic)
    locally_transitive_tournament = property(
        lambda r: r.tournament and r.locally_transitive)
    acyclic_local_tournament = property(
        lambda r: r.local_tournament and r.acyclic)


def classify(P):
    """Membership report of P; each property is judged when first read
    and `witnesses` runs them all.  The witnesses found are kept on P,
    so no check runs twice on one pog, whichever report reads it."""
    return PropertyReport(P)


def require_oriented(P):
    if not P.is_oriented():
        i, j = min(P.edges)
        raise InvariantError("graph has unoriented edge %s,%s"
                             % (P.names[i], P.names[j]))
    return P


def complete_closure(D):
    """Add an edge between every non-adjacent pair of an oriented graph."""
    require_oriented(D)
    missing = frozenset(_nonadjacent_pairs(D, range(D.n)))
    return Pog(D.names, D.edges | missing, D.arcs)
