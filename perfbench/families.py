"""Seeded input families with answers known by construction.

Each workload builds one pass of operation chains from a `random.Random`.
A chain is a generator: it yields an `Op`, receives `(verdict, stdout)`
for it, and may yield follow-up operations that depend on the output
(a `verify-cert` for every certificate, `check-ordering` on a returned
ordering).  Files are written through `put(name, text)`, outside the
timed calls.

Sizes are fixed per pass, so a seed changes labels, revealed arcs and
planted positions but not the amount of work; that keeps run-to-run
spread low.
"""

from __future__ import annotations

import oracle


class Op:
    __slots__ = ("label", "argv", "expect", "check", "refutes")

    def __init__(self, label, argv, expect, check=None, refutes=None):
        self.label = label      # "<subcommand>:<class>", the per-kind key
        self.argv = argv
        self.expect = expect    # "yes", "no" or "valid"
        self.check = check      # stdout -> None | reason, for yes answers
        # the pog a certificate from this op is about; the input by default
        self.refutes = refutes or argv[-1]


def ask(op, put):
    """Run `op`; when it refutes as planted, verify the certificate as an
    operation of its own."""
    verdict, out = yield op
    if op.expect == "no" and verdict == "ok":
        cert = put("cert", out)
        yield Op("verify-cert", ["verify-cert", op.refutes, cert], "valid")
    return verdict, out


# -- text ------------------------------------------------------------------


def pog_text(rng, names, edges=(), arcs=(), ordered=False):
    """Native pog text, declaration and line order shuffled so that the
    program's internal vertex numbering is seeded too; with `ordered`,
    vertices are declared in the order given."""
    decl = ["v %s" % v for v in names]
    if not ordered:
        rng.shuffle(decl)
    lines = []
    for u, v in edges:
        if rng.random() < 0.5:
            u, v = v, u
        lines.append("edge %s %s" % (u, v))
    lines += ["arc %s %s" % a for a in arcs]
    rng.shuffle(lines)
    return "\n".join(decl + lines) + "\n"


def labels(rng, n, prefix):
    perm = rng.sample(range(n), n)
    return ["%s%d" % (prefix, k) for k in perm]


# -- band graphs -------------------------------------------------------------


def band_pairs(n, w, circular):
    """Straight orientation of a band: i -> j for 0 < j - i <= w, taken
    modulo n on a circular band."""
    arcs = []
    for i in range(n):
        for d in range(1, w + 1):
            j = i + d
            if circular:
                arcs.append((i, j % n))
            elif j < n:
                arcs.append((i, j))
    return arcs


def band(rng, n, w, circular, share):
    """Band pog: the straight arcs revealed with probability `share`.
    Returns names, edges, arcs (by name) and the index-level straight
    orientation."""
    names = labels(rng, n, "v")
    straight = band_pairs(n, w, circular)
    edges, arcs = [], []
    for i, j in straight:
        pair = (names[i], names[j])
        (arcs if rng.random() < share else edges).append(pair)
    return names, edges, arcs, straight


# Each pass asks every local-tournament family question of these graphs:
# (n, band width, circular, revealed share).  n spans 3x; the mid sizes
# are dense enough that the p95 operation falls among similar costs.
COMPLETE_SPECS = [(30, 2, False, 0.0), (36, 3, True, 0.2),
                  (48, 2, True, 0.0), (54, 3, True, 0.1),
                  (60, 3, False, 0.3), (66, 3, False, 0.0),
                  (72, 2, False, 0.1), (90, 3, True, 0.2)]


def _band_complete_chains(rng, put, spec):
    n, w, circular, share = spec
    names, edges, arcs, straight = band(rng, n, w, circular, share)
    G = oracle.Digraph(names, edges, arcs)
    pog = put("band.pog", pog_text(rng, names, edges, arcs))
    # The straight orientation is an LT (acyclic unless circular) and is
    # locally transitive.  For w = 2, 3 the band on 2w + 3 consecutive
    # vertices has no transitive orientation (exhaustive search), and
    # every graph here with n >= 3w + 3 induces it, so no quasi-transitive
    # orientation exists (Ghouila-Houri).  Its aux
    # graph is one component, so any partial reveal of the straight class
    # is not consentaneous: ltlt-friendly refuses unless nothing is shown.
    friendly = "yes" if not arcs else "no"
    interval = "no" if circular else "yes"
    k = max(4, n // 5)
    s = rng.randrange(n - k + 1)
    window = list(range(s, s + k))
    partial = "".join("iv %s %d %d\n" % (names[i], 2 * (i - s),
                                          2 * (i - s) + 2 * w + 1)
                      for i in window)
    part = put("window.rep", partial)
    keep = [(names[i], names[j]) for i, j in straight
            if s <= i < s + k and s <= j < s + k]
    # An extend-rep refutation is about the graph with the window's
    # induced orientation as its only arcs, so that is what its
    # certificate is verified against.
    kept = {frozenset(p) for p in keep}
    fixed = put("window.pog", pog_text(
        rng, names, [(names[i], names[j]) for i, j in straight
                     if frozenset((names[i], names[j])) not in kept], keep))

    def completion(cls):
        return lambda out: oracle.check_completion(G, out, cls)

    questions = [
        Op("complete:lt", ["complete", "--class", "lt", pog], "yes",
           completion("lt")),
        Op("complete:quasi-transitive",
           ["complete", "--class", "quasi-transitive", pog], "no"),
        Op("complete:acyclic-lt", ["complete", "--class", "acyclic-lt", pog],
           interval, completion("acyclic-lt")),
        Op("complete:ltlt-friendly",
           ["complete", "--class", "ltlt-friendly", pog], friendly,
           completion("ltlt-friendly")),
        Op("recognize:proper-interval",
           ["recognize", "--class", "proper-interval", pog], interval,
           lambda out: oracle.check_representation(G, out, "interval")),
        Op("recognize:proper-circular-arc",
           ["recognize", "--class", "proper-circular-arc", pog], "yes",
           lambda out: oracle.check_representation(G, out, "circular")),
        Op("extend-rep:interval",
           ["extend-rep", "--kind", "interval", pog, part], interval,
           lambda out: oracle.check_representation(G, out, "interval", keep),
           refutes=fixed),
    ]
    return [ask(op, put) for op in questions]


def band_complete(rng, put):
    chains = []
    for spec in COMPLETE_SPECS:
        chains += _band_complete_chains(rng, put, spec)
    return chains


# -- band graphs with one planted obstruction --------------------------------


REFUTE_SIZES = (30, 60, 90)


def _claw(rng, n, w):
    """A new vertex seeing three pairwise non-adjacent band vertices: its
    neighbourhood is not covered by two cliques, so no LT exists."""
    names, edges, arcs, _ = band(rng, n, w, False, 0.2)
    i = rng.randrange(n - 2 * w - 2)
    for j in (i, i + w + 1, i + 2 * w + 2):
        edges.append(("z0", names[j]))
    return "lt", names + ["z0"], edges, arcs


def _c5(rng, n, w):
    """A path (w = 1 band) with an induced 5-cycle hung on it: C5 has no
    transitive orientation, so no quasi-transitive completion exists."""
    names, edges, arcs, _ = band(rng, n, 1, False, 0.2)
    cyc = ["z%d" % k for k in range(5)]
    edges += [(cyc[k], cyc[(k + 1) % 5]) for k in range(5)]
    edges.append((cyc[0], names[rng.randrange(n)]))
    return "quasi-transitive", names + cyc, edges, arcs


def _triangle(rng, n, w):
    """A revealed directed triangle on three consecutive vertices: no
    acyclic completion exists."""
    names, edges, arcs, _ = band(rng, n, w, False, 0.2)
    i = rng.randrange(n - 2)
    tri = {(names[i], names[i + 1]), (names[i + 1], names[i + 2]),
           (names[i + 2], names[i])}
    key = {frozenset(p) for p in tri}
    edges = [e for e in edges if frozenset(e) not in key]
    arcs = [a for a in arcs if frozenset(a) not in key] + sorted(tri)
    return "acyclic-lt", names, edges, arcs


def _flip(rng, n, w):
    """One revealed straight arc reversed: the aux graph of a band is one
    component, so the reveal puts arcs in both colour classes and no LT
    extends it."""
    names, edges, arcs, _ = band(rng, n, w, False, 0.3)
    k = rng.randrange(len(arcs))
    u, v = arcs[k]
    arcs[k] = (v, u)
    return "lt", names, edges, arcs


def _hole(rng, n, w):
    """A long induced cycle hung on the band: not chordal, so not a proper
    interval graph."""
    names, edges, arcs, _ = band(rng, n, w, False, 0.2)
    size = max(6, n // 4)
    cyc = ["z%d" % k for k in range(size)]
    edges += [(cyc[k], cyc[(k + 1) % size]) for k in range(size)]
    edges.append((cyc[0], names[rng.randrange(n)]))
    return "proper-interval", names + cyc, edges, arcs


OBSTRUCTIONS = (_claw, _c5, _triangle, _flip, _hole)


def band_refute(rng, put):
    chains = []
    for k, n in enumerate(REFUTE_SIZES):
        for plant in OBSTRUCTIONS:
            w = 2 + (k % 2)
            cls, names, edges, arcs = plant(rng, n, w)
            pog = put("refute.pog", pog_text(rng, names, edges, arcs))
            cmd = "recognize" if cls == "proper-interval" else "complete"
            op = Op("%s:%s" % (cmd, cls), [cmd, "--class", cls, pog], "no")
            chains.append(ask(op, put))
    return chains


# -- sparse, all-arc and dense families --------------------------------------


def ring_chords(rng, n, chords, prefix="r"):
    """Ring 0..n-1 plus chords forming a matching of ring distance >= 3,
    so the graph is 2-edge-connected and triangle-free."""
    ring = [(i, (i + 1) % n) for i in range(n)]
    used, extra = set(), []
    while len(extra) < chords:
        a, b = rng.sample(range(n), 2)
        if a in used or b in used or min((a - b) % n, (b - a) % n) < 3:
            continue
        used |= {a, b}
        extra.append((a, b))
    return labels(rng, n, prefix), ring, extra


RING_SIZES = (40, 80, 120)
ALLARC_FACTOR_SIZES = (400, 700, 1200)
ALLARC_STRONG_SIZES = (60, 120, 180)
DENSE_SIZES = (20, 30, 40)


def _strong_yes(rng, n):
    """The cyclic ring orientation is strong and stays strong whatever
    the chords do, so revealing part of it plus any chord directions
    leaves a strong completion."""
    names, ring, chords = ring_chords(rng, n, n // 4)
    edges, arcs = [], []
    for i, j in ring:
        (arcs if rng.random() < 0.3 else edges).append((names[i], names[j]))
    for i, j in chords:
        if rng.random() < 0.3:
            arcs.append((names[i], names[j]) if rng.random() < 0.5
                        else (names[j], names[i]))
        else:
            edges.append((names[i], names[j]))
    return names, edges, arcs


def _strong_bridge(rng, n):
    """Two rings joined by one edge: a bridge, so no strong completion."""
    h = n // 2
    na, ra, ca = ring_chords(rng, h, h // 4, "r")
    nb, rb, cb = ring_chords(rng, h, h // 4, "s")
    edges = [(na[i], na[j]) for i, j in ra + ca]
    edges += [(nb[i], nb[j]) for i, j in rb + cb]
    edges.append((na[rng.randrange(h)], nb[rng.randrange(h)]))
    return na + nb, edges, []


def _strong_cut(rng, n):
    """Every edge leaving the first half of the ring is revealed as an arc
    out of it: a directed cut, so no strong completion."""
    names, ring, chords = ring_chords(rng, n, n // 4)
    side = set(range(n // 2))
    edges, arcs = [], []
    for i, j in ring + chords:
        if (i in side) != (j in side):
            arcs.append((names[i], names[j]) if i in side
                        else (names[j], names[i]))
        else:
            edges.append((names[i], names[j]))
    return names, edges, arcs


def _in_tournament(rng, n, chorded):
    """Triangle-free, so in-neighbourhoods must be single vertices: an
    in-tournament orientation has at most n arcs.  A bare ring (cyclic
    reveal) completes; a ring with chords has more than n edges and
    cannot."""
    names, ring, chords = ring_chords(rng, n, n // 4 if chorded else 0)
    edges, arcs = [], []
    for i, j in ring:
        (arcs if rng.random() < 0.3 else edges).append((names[i], names[j]))
    edges += [(names[i], names[j]) for i, j in chords]
    return names, edges, arcs


def all_arc(rng, n, factor):
    """Arcs i -> i+1 and i -> i+2 plus v[n-1] -> v[1]; with `factor` also
    v[n-2] -> v[0].  With it, i -> i+2 for i < n-2, v[n-2] -> v[0] and
    v[n-1] -> v[1] is a planted cycle factor and the digraph is strong.
    Without it v[0] has no in-arc: no cycle factor, not strong.  Declared
    in path order, the matching search then augments along a path of
    length ~n in either case, so the recursion-depth defect of the cycle
    factor search shows at the same sizes on every seed."""
    names = labels(rng, n, "a")
    arcs = [(i, i + 1) for i in range(n - 1)] + [(i, i + 2) for i in range(n - 2)]
    arcs.append((n - 1, 1))
    if factor:
        arcs.append((n - 2, 0))
    succ = {names[i]: names[i + 2] for i in range(n - 2)}
    succ[names[n - 2]] = names[0]
    succ[names[n - 1]] = names[1]
    return names, [(names[i], names[j]) for i, j in arcs], succ


def _dense(rng, n, cyclic):
    """Complete graph with part of a planted linear order revealed; with
    `cyclic`, three revealed arcs form a directed triangle instead."""
    names = labels(rng, n, "t")
    edges, arcs = [], []
    for a in range(n):
        for b in range(a + 1, n):
            (arcs if rng.random() < 0.3 else edges).append((names[a], names[b]))
    if cyclic:
        i, j, k = sorted(rng.sample(range(n), 3))
        tri = {(names[i], names[j]), (names[j], names[k]), (names[k], names[i])}
        key = {frozenset(p) for p in tri}
        edges = [e for e in edges if frozenset(e) not in key]
        arcs = [a for a in arcs if frozenset(a) not in key] + sorted(tri)
    return names, edges, arcs


def sparse_strong(rng, put):
    chains = []

    def add(cls, names, edges, arcs, expect, factor=None, ordered=False):
        G = oracle.Digraph(names, edges, arcs)
        pog = put("sparse.pog", pog_text(rng, names, edges, arcs, ordered))
        check = (lambda out: oracle.check_completion(G, out, cls, factor))
        op = Op("complete:%s" % cls, ["complete", "--class", cls, pog],
                expect, check)
        chains.append(ask(op, put))

    for n in RING_SIZES:
        add("strong", *_strong_yes(rng, n), "yes")
        add("strong", *_strong_bridge(rng, n), "no")
        add("strong", *_strong_cut(rng, n), "no")
        add("in-tournament", *_in_tournament(rng, n, False), "yes")
        add("in-tournament", *_in_tournament(rng, n, True), "no")
    for n in ALLARC_FACTOR_SIZES:
        for factor in (True, False):
            names, arcs, succ = all_arc(rng, n, factor)
            add("cycle-factor", names, [], arcs,
                "yes" if factor else "no", succ, ordered=True)
    for n in ALLARC_STRONG_SIZES:
        for factor in (True, False):
            names, arcs, _ = all_arc(rng, n, factor)
            add("strong", names, [], arcs, "yes" if factor else "no",
                ordered=True)
    for n in DENSE_SIZES:
        for cyclic in (False, True):
            add("transitive", *_dense(rng, n, cyclic),
                "no" if cyclic else "yes")
    return chains


# -- 3-SAT reduction and desk-scale exact search -----------------------------


# (variables, clauses): clause densities 1.5 to 4.3.  Clause counts stay
# small because the excellence check is quadratic in the 21m arcs.
FORMULAS = [(3, 6), (3, 13), (4, 6), (4, 11), (4, 15), (5, 8), (5, 13), (6, 9)]
EXACT_SIZES = (6, 7, 8)
MAX_SEARCH_EDGES = 22   # the CLI's exact-search size guard


def planted_cnf(rng, n, m):
    """Random 3-CNF whose clauses all hold under a planted assignment and
    where every variable occurs."""
    t = [rng.random() < 0.5 for _ in range(n)]
    while True:
        clauses = []
        while len(clauses) < m:
            vs = rng.sample(range(1, n + 1), 3)
            cl = [v if rng.random() < 0.5 else -v for v in vs]
            if any((l > 0) == t[abs(l) - 1] for l in cl):
                clauses.append(cl)
        if {abs(l) for cl in clauses for l in cl} == set(range(1, n + 1)):
            break
    text = "p cnf %d %d\n" % (n, m)
    text += "".join(" ".join(map(str, cl)) + " 0\n" for cl in clauses)
    return text, "".join("T" if b else "F" for b in t)


def _reduction_chain(rng, put, n, m):
    text, witness = planted_cnf(rng, n, m)
    cnf = put("f.cnf", text)
    state = {}

    def shape(out):
        """2n + 7m vertices, n + 3m edges, 12m occurrence arcs plus 9m
        wheel arcs."""
        try:
            H = oracle.parse_pog(out)
        except ValueError as exc:
            return str(exc)
        got = (len(H.names), len(H.edges), len(H.arcs))
        if got != (2 * n + 7 * m, n + 3 * m, 21 * m):
            return "reduction has shape %r" % (got,)
        state["H"] = H
        return None

    verdict, out = yield from ask(
        Op("reduce-3sat", ["reduce-3sat", cnf], "yes", shape), put)
    if verdict != "ok":
        return
    pog = put("h.pog", out)
    H = state["H"]
    verdict, out = yield from ask(
        Op("reduce-3sat:witness", ["reduce-3sat", "--witness", witness, cnf],
           "yes", lambda out: oracle.check_ordering_text(H, out)), put)
    if verdict != "ok":
        return
    order = put("o.ord", out)
    yield from ask(Op("check-ordering:excellent",
                      ["check-ordering", "--kind", "excellent", pog, order],
                      "yes", lambda out: None if out == "yes\n" else out),
                   put)


def _ltt(rng, n, planted_triangle):
    """Tournament on n vertices within the exact-search guard.  Yes: part
    of a locally transitive tournament (rotational for odd n, transitive
    for even n) is revealed.  No: a revealed directed triangle inside the
    out-neighbourhood of a fourth vertex."""
    names = labels(rng, n, "q")
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    if n % 2:
        beats = lambda a, b: (b - a) % n <= n // 2
    else:
        beats = lambda a, b: a < b
    planted = [(a, b) if beats(a, b) else (b, a) for a, b in pairs]
    rng.shuffle(planted)
    if planted_triangle:
        v, x, y, z = rng.sample(range(n), 4)
        forced = [(v, x), (v, y), (v, z), (x, y), (y, z), (z, x)]
        key = {frozenset(p) for p in forced}
        planted = forced + [p for p in planted if frozenset(p) not in key]
        nforced = len(forced)
    else:
        nforced = 0
    reveal = max(nforced, len(pairs) - MAX_SEARCH_EDGES + rng.randrange(3))
    arcs = [(names[a], names[b]) for a, b in planted[:reveal]]
    edges = [(names[a], names[b]) for a, b in planted[reveal:]]
    return names, edges, arcs


def sat_reduction(rng, put):
    chains = [_reduction_chain(rng, put, n, m) for n, m in FORMULAS]
    for n in EXACT_SIZES:
        for no in (False, True):
            names, edges, arcs = _ltt(rng, n, no)
            G = oracle.Digraph(names, edges, arcs)
            pog = put("ltt.pog", pog_text(rng, names, edges, arcs))
            op = Op("complete:ltt-exact",
                    ["complete", "--class", "ltt-exact", pog],
                    "no" if no else "yes",
                    lambda out, G=G: oracle.check_completion(G, out, "ltt-exact"))
            chains.append(ask(op, put))
    return chains


WORKLOADS = {
    "band-complete": band_complete,
    "band-refute": band_refute,
    "sparse-strong": sparse_strong,
    "sat-reduction": sat_reduction,
}
