"""Scaling ladder: time pogc kernels on graph families of growing size.

Standard library only.  From the repository root:

    python3 bench/ladder.py                  # writes bench/BENCH_<commit>.json
    python3 bench/ladder.py --sizes 400 --out -

The package is imported from `src/` of the checkout this script lives
in.  Each kernel runs on one family at n = 10^2, 10^2.5, ..., 10^4:
band-4 (v_i ~ v_j iff |i - j| <= 4, no arcs), alone or with a proper
representation of it (v_i on [2i, 2 min(i + 4, n - 1) + 1], on a line
or turned half round a circle of length 2n), the strong all-arc
digraph (arcs i -> i+1 and i -> i+2 plus v[n-1] -> v[1] and
v[n-2] -> v[0], no edges), the same without v[n-2] -> v[0] (v0 has no
in-arc, so no cycle factor), the circulant C_n(1,2) (arcs i -> i+1
and i -> i+2 mod n, no edges) or ring+chord (the ring v0 v1 ... v0
plus n/4 chords, a matching of ring distance >= 3 seeded by n, with
30 % of the pairs revealed as arcs: ring pairs along the ring, chords
either way, as perfbench's strong "yes" pogs), two band-4 halves
joined by one edge, band-4 with every pair across its middle an arc
left to right, or band-4 on n - 6 vertices beside a disjoint 6-hole or
tent (the triangle x0 x1 x2, with x3, x4 and x5 each adjacent to one
of its sides).  `complete_to_strong` orients every edge of band-4 and
ring+chord, which both have strong completions (all-arc has no edge to
orient), and refutes the halves by their bridge and the band with arcs
across by a directed cut.  `complete_to_in_tournament` orients band-4,
which as a chordal graph has an in-tournament completion, by 2-SAT over
its adjacent pairs.  The `parse_pog` kernels
read band-4 or all-arc as native text from `render_pog`, and the
`render_pog` kernels write that text;
`classify.locally_transitive.band` reads band-4 oriented straight
(every edge from its smaller end),
`saturate_to_round_lt.circulant` saturates the circulant under the
identity ordering, which is round for it, and `build_reduction.planted`
reduces a seeded 3-CNF with a planted satisfying assignment, sized so
that its reduction has n = 2 vars + 7 clauses
vertices.  A point is the fastest of a
few runs, each on a freshly built input so that no cached view is
shared between runs; only the kernel call is timed.
A run longer than CAP_S is stopped by SIGALRM; that point
is recorded with `"seconds": null` and the kernel's larger sizes are
skipped.  A kernel named in LARGEST_N stops at that n (recorded as
`"largest_n"`), where its memory, not its time, would be the limit.  The
exponent of a kernel is the least-squares slope of log(time) against
log(n) over its measured points.  Times are raw `perf_counter` seconds
on the host named in the output.

The start-up section runs fresh interpreters on a copy of the package,
STARTUP_RUNS of each measurement, interleaved: the `-X importtime`
cumulative time of `import pogc.cli`, and the wall time of
`python -m pogc complete --class lt` on band-4 at n = 100 (stdout
discarded).  Each is taken with a warm bytecode cache for the package
(written by one unmeasured run) and with none (`-B` on a copy with no
cache, so every run compiles the package from source); the standard
library's installed cache is used either way.  Each figure is the
median with its quartiles and extremes, in milliseconds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from pogc.auxgraph import build_aux  # noqa: E402
from pogc.completions import (complete_to_cycle_factor_bruteforce,  # noqa: E402
                              complete_to_in_tournament, complete_to_strong,
                              find_cycle_factor)
from pogc.hardness import CnfFormula, build_reduction  # noqa: E402
from pogc.interval import (Representation, complete_to_acyclic_lt,  # noqa: E402
                           lbfs, validate_representation)
from pogc.pog import Ordering, Pog, classify, parse_pog, render_pog  # noqa: E402
from pogc.rounds import (check_ordering, round_to_ltt,  # noqa: E402
                         saturate_to_round_lt)
from pogc.verify import verify_certificate  # noqa: E402

WIDTH = 4
SIZES = tuple(round(10 ** (2 + k / 2)) for k in range(5))
CAP_S = 30.0            # longest run allowed at one point
REPEAT_BUDGET_S = 0.5   # repeat a point while its runs total less than this
MAX_REPEATS = 5
STARTUP_RUNS = 15       # fresh processes per start-up figure
STARTUP_N = 100


class Capped(Exception):
    pass


def band(n, w=WIDTH):
    return Pog(tuple("v%d" % i for i in range(n)),
               frozenset((i, j) for i in range(n)
                         for j in range(i + 1, min(n, i + w + 1))),
               frozenset())


def band_halves(n, w=WIDTH):
    """Two band-w halves joined by the one edge v[n/2 - 1] v[n/2]."""
    h = n // 2
    P = band(n, w)
    return Pog(P.names, frozenset(p for p in P.edges if (p[0] < h) == (p[1] < h))
               | {(h - 1, h)}, frozenset())


def band_cut(n, w=WIDTH):
    """Band-w with every pair across its middle an arc left to right."""
    h = n // 2
    P = band(n, w)
    across = frozenset(p for p in P.edges if p[0] < h <= p[1])
    return Pog(P.names, P.edges - across, across)


HOLE6 = [(k, (k + 1) % 6) for k in range(6)]
TENT = [(0, 1), (1, 2), (0, 2), (3, 0), (3, 1), (4, 1), (4, 2), (5, 2), (5, 0)]


def band_beside(edges, n, w=WIDTH):
    """Band-w on n - 6 vertices beside a disjoint graph on 6 vertices
    x0 ... x5 with the given edges."""
    P, h = band(n - 6, w), n - 6
    return Pog(P.names + tuple("x%d" % k for k in range(6)),
               P.edges | {(h + min(a, b), h + max(a, b)) for a, b in edges},
               frozenset())


def band_straight(n, w=WIDTH):
    P = band(n, w)
    return Pog(P.names, frozenset(), P.edges)


def planted_cnf(n):
    """3-CNF, seeded by n, that a planted assignment satisfies: about n / 9
    clauses and as many variables, every variable occurring, so that
    2 vars + 7 clauses = n."""
    m = n // 9 + (n - 7 * (n // 9)) % 2
    v = (n - 7 * m) // 2
    rng = random.Random(n)
    t = [rng.random() < 0.5 for _ in range(v + 1)]
    order = rng.sample(range(1, v + 1), v)
    clauses = []
    for j in range(m):
        vs = order[3 * j:3 * j + 3]  # the first clauses cover every variable
        vs += rng.sample([x for x in range(1, v + 1) if x not in vs], 3 - len(vs))
        cl = [x if rng.random() < 0.5 else -x for x in vs]
        if not any((l > 0) == t[abs(l)] for l in cl):
            cl[0] = -cl[0]
        clauses.append(tuple(cl))
    return CnfFormula(v, tuple(clauses))


def band_spans(n, w=WIDTH):
    return [(2 * i, 2 * min(i + w, n - 1) + 1) for i in range(n)]


def band_interval(n):
    P = band(n)
    return P, Representation("interval", P.names, tuple(band_spans(n)))


def band_circular(n):
    """Band-4 with its spans turned half round the circle, so that
    those near the turn wrap."""
    P, modulus = band(n), 2 * n
    return P, Representation("circular", P.names,
                             tuple(((l + n) % modulus, (r + n) % modulus)
                                   for l, r in band_spans(n)), modulus)


def identity_excellent(P):
    """Check the identity cyclic ordering, which is excellent on all-arc."""
    return check_ordering(P, Ordering("cyclic", tuple(range(P.n))), "excellent")


def identity_saturate(D):
    """Saturate under the identity cyclic ordering, which is round for
    the circulant: each maximal arc i -> i+2 spans a triangle, so no arc
    is added."""
    return saturate_to_round_lt(D, Ordering("cyclic", tuple(range(D.n))))


def all_arc(n, factor=True):
    arcs = [(i, i + 1) for i in range(n - 1)] + [(i, i + 2) for i in range(n - 2)]
    arcs.append((n - 1, 1))
    if factor:
        arcs.append((n - 2, 0))
    return Pog(tuple("v%d" % i for i in range(n)), frozenset(), frozenset(arcs))


def refute_and_verify(P):
    """Refute a cycle-factor completion of P and check the certificate."""
    cert = complete_to_cycle_factor_bruteforce(P)
    if not verify_certificate(P, cert):
        raise RuntimeError("cycle-factor refutation did not verify")


def circulant(n):
    return Pog(tuple("v%d" % i for i in range(n)), frozenset(),
               frozenset((i, (i + s) % n) for i in range(n) for s in (1, 2)))


def ring_chord(n):
    rng = random.Random(n)
    pairs = [(i, (i + 1) % n) for i in range(n)]
    used = set()
    while len(pairs) < n + n // 4:
        a, b = rng.sample(range(n), 2)
        if a in used or b in used or min((a - b) % n, (b - a) % n) < 3:
            continue
        used |= {a, b}
        pairs.append((a, b) if rng.random() < 0.5 else (b, a))
    edges, arcs = set(), set()
    for a, b in pairs:
        if rng.random() < 0.3:
            arcs.add((a, b))
        else:
            edges.add((min(a, b), max(a, b)))
    return Pog(tuple("v%d" % i for i in range(n)), frozenset(edges),
               frozenset(arcs))


def band_text(n):
    return render_pog(band(n))


def all_arc_text(n):
    return render_pog(all_arc(n))


BAND = "band-%d, no arcs" % WIDTH
BAND_TEXT = "band-%d, native text" % WIDTH
BAND_IV = "band-%d, interval representation" % WIDTH
BAND_CA = "band-%d, circular representation turned by n" % WIDTH
ALL_ARC = "all-arc, strong, no edges"
ALL_ARC_TEXT = "all-arc, native text"
ALL_ARC_NO_FACTOR = "all-arc without v[n-2] -> v[0], no cycle factor"
CIRCULANT = "circulant C_n(1,2), no edges"
BAND_STRAIGHT = "band-%d oriented from the smaller end, no edges" % WIDTH
PLANTED_CNF = "planted 3-CNF with 2 vars + 7 clauses = n"
RING_CHORD = "ring+chord, 30 % revealed, strong completion"
BAND_HALVES = "two band-%d halves joined by one edge, a bridge" % WIDTH
BAND_CUT = "band-%d, the pairs across its middle arcs left to right" % WIDTH
BAND_HOLE = "band-%d on n - 6 vertices beside a disjoint 6-hole" % WIDTH
BAND_TENT = "band-%d on n - 6 vertices beside a disjoint tent" % WIDTH
FAMILIES = {BAND: band, BAND_IV: band_interval, BAND_CA: band_circular,
            ALL_ARC: all_arc, ALL_ARC_NO_FACTOR: lambda n: all_arc(n, False),
            CIRCULANT: circulant, BAND_TEXT: band_text,
            ALL_ARC_TEXT: all_arc_text, BAND_STRAIGHT: band_straight,
            PLANTED_CNF: planted_cnf, RING_CHORD: ring_chord,
            BAND_HALVES: band_halves, BAND_CUT: band_cut,
            BAND_HOLE: lambda n: band_beside(HOLE6, n),
            BAND_TENT: lambda n: band_beside(TENT, n)}
KERNELS = {  # name: (family, kernel)
    "build_aux.local_tournament": (BAND, lambda P: build_aux(P, "local_tournament")),
    "build_aux.quasi_transitive": (BAND, lambda P: build_aux(P, "quasi_transitive")),
    "complete_to_acyclic_lt": (BAND, complete_to_acyclic_lt),
    "complete_to_acyclic_lt.band_hole": (BAND_HOLE, complete_to_acyclic_lt),
    "complete_to_acyclic_lt.band_tent": (BAND_TENT, complete_to_acyclic_lt),
    "lbfs.band": (BAND, lbfs),
    "validate_representation.interval":
        (BAND_IV, lambda PR: validate_representation(*PR)),
    "validate_representation.circular":
        (BAND_CA, lambda PR: validate_representation(*PR)),
    "complete_to_strong.all_arc": (ALL_ARC, complete_to_strong),
    "complete_to_strong.band": (BAND, complete_to_strong),
    "complete_to_strong.ring_chord": (RING_CHORD, complete_to_strong),
    "complete_to_strong.bridge": (BAND_HALVES, complete_to_strong),
    "complete_to_strong.cut": (BAND_CUT, complete_to_strong),
    "complete_to_in_tournament.band": (BAND, complete_to_in_tournament),
    "find_cycle_factor.all_arc": (ALL_ARC, find_cycle_factor),
    "cycle_factor.refute_and_verify.all_arc": (ALL_ARC_NO_FACTOR, refute_and_verify),
    "check_ordering.excellent.all_arc": (ALL_ARC, identity_excellent),
    "round_to_ltt.circulant": (CIRCULANT, round_to_ltt),
    "saturate_to_round_lt.circulant": (CIRCULANT, identity_saturate),
    "parse_pog.all_arc": (ALL_ARC_TEXT, parse_pog),
    "parse_pog.band": (BAND_TEXT, parse_pog),
    "render_pog.all_arc": (ALL_ARC, render_pog),
    "render_pog.band": (BAND, render_pog),
    "build_reduction.planted": (PLANTED_CNF, build_reduction),
    "classify.locally_transitive.band":
        (BAND_STRAIGHT, lambda D: classify(D).locally_transitive),
}
# round_to_ltt writes out a tournament, all n(n - 1)/2 arcs of it, and
# re-checks it through neighbour-set views: about 1.2 GB at n = 3,162
# (5.0 M arcs), so n = 10^4 (50 M arcs) would need about 12 GB.
LARGEST_N = {"round_to_ltt.circulant": 3162}


def _alarm(signum, frame):
    raise Capped


def time_point(family, kernel, n):
    """Fastest of up to MAX_REPEATS runs of kernel on family(n), or None
    when a run exceeds CAP_S."""
    best, total = math.inf, 0.0
    for _ in range(MAX_REPEATS):
        arg = family(n)
        signal.setitimer(signal.ITIMER_REAL, CAP_S)
        try:
            t0 = perf_counter()
            kernel(arg)
            dt = perf_counter() - t0
        except Capped:
            return None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        best, total = min(best, dt), total + dt
        if total >= REPEAT_BUDGET_S:
            break
    return best


def exponent(points):
    """Least-squares slope of log t on log n, or None below two points."""
    xy = [(math.log(p["n"]), math.log(p["seconds"]))
          for p in points if p["seconds"]]
    if len(xy) < 2:
        return None
    mx = sum(x for x, _ in xy) / len(xy)
    my = sum(y for _, y in xy) / len(xy)
    sxx = sum((x - mx) ** 2 for x, _ in xy)
    return round(sum((x - mx) * (y - my) for x, y in xy) / sxx, 3)


def _spread(ms):
    q1, _, q3 = statistics.quantiles(ms, n=4)
    return {"runs": len(ms), "median_ms": round(statistics.median(ms), 3),
            "q1_ms": round(q1, 3), "q3_ms": round(q3, 3),
            "min_ms": round(min(ms), 3), "max_ms": round(max(ms), 3)}


def _import_ms(cmd, env):
    """The -X importtime cumulative time of pogc.cli, in ms."""
    err = subprocess.run(cmd + ["-X", "importtime", "-c", "import pogc.cli"],
                         env=env, capture_output=True, text=True,
                         check=True).stderr
    line = [ln for ln in err.splitlines() if ln.split("|")[-1].strip() == "pogc.cli"][-1]
    return int(line.split("|")[1]) / 1000.0


def _command_ms(cmd, env, path):
    t0 = perf_counter()
    subprocess.run(cmd + ["-m", "pogc", "complete", "--class", "lt", path],
                   env=env, stdout=subprocess.DEVNULL, check=True)
    return (perf_counter() - t0) * 1000.0


def startup():
    """The start-up section: {cache: {measurement: spread}} over
    STARTUP_RUNS interleaved fresh processes per figure."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    src = os.path.join(ROOT, "src", "pogc")
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    with tempfile.TemporaryDirectory(prefix="pogc-startup-") as tmp:
        path = os.path.join(tmp, "band.pog")
        with open(path, "w") as fh:
            fh.write(render_pog(band(STARTUP_N)))
        setups = {}
        for cache, flags in (("warm", []), ("none", ["-B"])):
            shutil.copytree(src, os.path.join(tmp, cache, "pogc"), ignore=ignore)
            setups[cache] = ([sys.executable] + flags,
                             dict(env, PYTHONPATH=os.path.join(tmp, cache)))
        _import_ms(*setups["warm"])  # writes the warm cache
        times = {(c, m): [] for c in setups for m in ("import", "command")}
        for _ in range(STARTUP_RUNS):
            for cache, (cmd, cenv) in setups.items():
                times[cache, "import"].append(_import_ms(cmd, cenv))
                times[cache, "command"].append(_command_ms(cmd, cenv, path))
    return {cache: {"import pogc.cli (-X importtime, cumulative)":
                    _spread(times[cache, "import"]),
                    "pogc complete --class lt, band-%d, n = %d (wall)"
                    % (WIDTH, STARTUP_N): _spread(times[cache, "command"])}
            for cache in setups}


def short_commit():
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=SIZES)
    ap.add_argument("--commit", default=None,
                    help="label of the measured code (default: git HEAD)")
    ap.add_argument("--out", default=None,
                    help="output file, '-' for stdout "
                         "(default: bench/BENCH_<commit>.json)")
    args = ap.parse_args(argv)
    commit = args.commit or short_commit()
    signal.signal(signal.SIGALRM, _alarm)
    kernels = {}
    for name, (family, kernel) in KERNELS.items():
        points = []
        for n in sorted(n for n in args.sizes if n <= LARGEST_N.get(name, n)):
            t = time_point(FAMILIES[family], kernel, n)
            points.append({"n": n, "seconds": None if t is None else round(t, 6)})
            print("%-40s n=%-6d %s" % (name, n, "capped" if t is None
                                       else "%.4f s" % t), file=sys.stderr)
            if t is None:
                break
        kernels[name] = {"family": family, "points": points,
                         "exponent": exponent(points)}
        if name in LARGEST_N:
            kernels[name]["largest_n"] = LARGEST_N[name]
    result = {
        "commit": commit,
        "cap_s": CAP_S,
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "kernels": kernels,
    }
    result["startup"] = startup()
    for cache, figures in result["startup"].items():
        for what, f in figures.items():
            print("startup %-5s %-50s median %.2f ms [%.2f, %.2f]"
                  % (cache, what, f["median_ms"], f["q1_ms"], f["q3_ms"]),
                  file=sys.stderr)
    text = json.dumps(result, indent=1) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
        return
    out = args.out or os.path.join(ROOT, "bench", "BENCH_%s.json" % commit)
    with open(out, "w") as fh:
        fh.write(text)
    print("wrote %s" % out, file=sys.stderr)


if __name__ == "__main__":
    main()
