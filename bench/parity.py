"""Parity check: the CLI bytes of two source trees on one seeded corpus.

Standard library only.  From the repository root:

    python3 bench/parity.py OLD NEW

OLD and NEW are directories that hold `src/pogc`: a checkout, or a
commit unpacked with `git archive`.  Each tree runs the corpus in a
child process of its own, with PYTHONPATH set to its `src`, inside an
empty temporary directory, so that file names agree.  Every command goes
through `pogc.cli.run` with stdout and stderr captured.  For each
(command, class) group the first command whose exit status, stdout or
stderr differs is printed with both outputs, and then, per group, the
count of commands and of each outcome (exit status, and the certificate
kind of a refutation).  The last line counts the commands and those that
differ; the exit status is 0 when none differs, 1 otherwise.

The corpus, from one `random.Random(SEED)`, runs in ROUNDS rounds.  Each
round asks, plain and with `--json`:
- `complete` and `recognize` of every class of `pogc.classes.ROWS` on a
  random pog on 0-9 vertices: in one round in five complete, with some
  arcs of a rotational locally transitive tournament shown, in one in
  four complete at random (at most 8 vertices), so that the exact
  search runs, else sparser;
- `extend-rep` of both kinds on a band graph and a half window of its
  straight representation, now and then mirrored or with two spans
  swapped;
- `check-ordering` of the three kinds on a random oriented graph and a
  random ordering;
- `reduce-3sat` of a random 3-CNF, without and with `--witness`.
Every plain refutation is followed by `verify-cert` of its certificate
against the input.  A prefix of the corpus (`run_corpus(limit=...)`)
is the golden slice that tier-1 hashes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile

SEED = 2015
ROUNDS = 5000


# -- the corpus -----------------------------------------------------------


def _pog_text(rng, names, edges, arcs):
    decl = ["v %s" % v for v in names]
    rng.shuffle(decl)
    lines = ["edge %s %s" % (e[::-1] if rng.random() < 0.5 else e)
             for e in edges]
    lines += ["arc %s %s" % a for a in arcs]
    rng.shuffle(lines)
    return "\n".join(decl + lines) + "\n"


def _random_pog(rng, n, p_adj, p_arc):
    names = ["v%d" % k for k in range(n)]
    edges, arcs = [], []
    for u, v in itertools.combinations(names, 2):
        if rng.random() < p_adj:
            if rng.random() < p_arc:
                arcs.append((u, v) if rng.random() < 0.5 else (v, u))
            else:
                edges.append((u, v))
    return names, edges, arcs


def _ltt_part(rng, n, p_arc):
    """A complete pog whose arcs are some of those of the rotational
    tournament i -> i + d (mod n), 0 < d < n / 2, under random labels;
    every other pair is an edge."""
    names = ["v%d" % k for k in rng.sample(range(n), n)]
    edges, arcs = [], []
    for i, j in itertools.combinations(range(n), 2):
        d = j - i
        pair = (names[i], names[j]) if 2 * d < n else (names[j], names[i])
        (arcs if 2 * d != n and rng.random() < p_arc else edges).append(pair)
    return names, edges, arcs


def _band(rng, put):
    """A band graph (n vertices, width w, linear or circular, some
    straight arcs shown) and partials of both kinds on a half window:
    its straight spans, now and then mirrored or with two swapped."""
    w = rng.randint(1, 3)
    n = rng.randint(2 * w + 2, 14)
    circular = rng.random() < 0.5
    names = ["b%d" % k for k in rng.sample(range(n), n)]
    edges, arcs = [], []
    for i in range(n):
        for d in range(1, w + 1):
            if i + d < n or circular:
                pair = (names[i], names[(i + d) % n])
                (arcs if rng.random() < 0.15 else edges).append(pair)
    put("band.pog", _pog_text(rng, names, edges, arcs))
    k = n // 2
    s = rng.randrange(n if circular else n - k + 1)
    ids = [(s + t) % n for t in range(k)]
    if rng.random() < 0.3:  # mirrored: against the straight arcs shown
        ids.reverse()
    if rng.random() < 0.1:  # two spans swapped
        a, b = rng.sample(range(k), 2)
        ids[a], ids[b] = ids[b], ids[a]
    put("iv.rep", "".join("iv %s %d %d\n" % (names[i], 2 * t, 2 * t + 2 * w + 1)
                          for t, i in enumerate(ids)))
    m = 2 * n
    put("ca.rep", "".join("ca %s %d %d %d\n" % (names[i], 2 * t,
                                                (2 * t + 2 * w + 1) % m, m)
                          for t, i in enumerate(ids)))


def _cnf(rng):
    """DIMACS text of a random 3-CNF and a witness string: mostly with
    its variables renumbered in order of first use, and a satisfying
    assignment when brute force finds one."""
    n, m = rng.randint(3, 6), rng.randint(1, 6)
    clauses = [[v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), 3)]
               for _ in range(m)]
    if rng.random() < 0.8:
        ren = {}
        for l in itertools.chain.from_iterable(clauses):
            ren.setdefault(abs(l), len(ren) + 1)
        clauses = [[ren[abs(l)] * (1 if l > 0 else -1) for l in cl]
                   for cl in clauses]
        n = len(ren)
    sats = [bits for bits in itertools.product("TF", repeat=n)
            if all(any((bits[abs(l) - 1] == "T") == (l > 0) for l in cl)
                   for cl in clauses)]
    wit = (rng.choice(sats) if sats and rng.random() < 0.7
           else [rng.choice("TF") for _ in range(n)])
    text = "p cnf %d %d\n" % (n, m) + "".join(
        " ".join(map(str, cl)) + " 0\n" for cl in clauses)
    return text, "".join(wit)


def corpus(put, rows):
    """The commands as (group, argv, pog file a refutation is about),
    writing their input files through put(name, text) as it goes.
    `rows` are the (command, class) keys of the tree's class table."""
    rng = random.Random(SEED)
    for _ in range(ROUNDS):
        n, shape = rng.randint(0, 9), rng.random()
        p_arc = rng.choice((0.3, 0.5, 0.7, 0.9))
        if shape < 0.2:
            pog = _ltt_part(rng, n, p_arc)
        else:
            full = shape < 0.45 and n <= 8
            pog = _random_pog(rng, n, 1.0 if full else rng.choice(
                (0.3, 0.5, 0.7, 0.9)), p_arc)
        put("g.pog", _pog_text(rng, *pog))
        asks = [((cmd, cls), [cmd, "--class", cls, "g.pog"], "g.pog")
                for cmd, cls in rows]
        _band(rng, put)
        asks += [(("extend-rep", kind), ["extend-rep", "--kind", kind,
                                         "band.pog", rep], "band.pog")
                 for kind, rep in (("interval", "iv.rep"), ("circular", "ca.rep"))]
        names, _, arcs = _random_pog(rng, rng.randint(1, 7), 0.7, 1.0)
        put("d.pog", _pog_text(rng, names, (), arcs))
        put("order", "order %s %s\n" % (rng.choice(("cyclic", "linear")),
                                        " ".join(rng.sample(names, len(names)))))
        asks += [(("check-ordering", kind), ["check-ordering", "--kind", kind,
                                             "d.pog", "order"], "d.pog")
                 for kind in ("round", "excellent", "nice")]
        text, wit = _cnf(rng)
        put("f.cnf", text)
        asks += [(("reduce-3sat", "plain"), ["reduce-3sat", "f.cnf"], None),
                 (("reduce-3sat", "witness"),
                  ["reduce-3sat", "--witness", wit, "f.cnf"], None)]
        for group, argv, pog in asks:
            yield group, argv, pog
            yield group, argv + ["--json"], None


def _call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def run_corpus(emit, limit=None):
    """Run the corpus through the importable `pogc.cli` in a fresh
    temporary directory, stopping after `limit` commands (follow-ups not
    counted).  Per command, emit(group, argv, code, stdout, stderr,
    check): check is [code, stdout, stderr] of the verify-cert of its
    refutation, or None."""
    from pogc import classes, cli
    here = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="pogc-parity-") as tmp:
        os.chdir(tmp)
        try:
            def put(name, text):
                with open(name, "w") as fh:
                    fh.write(text)

            cmds = corpus(put, sorted(classes.ROWS))
            for group, argv, pog in itertools.islice(cmds, limit):
                code, out, err = _call(cli, argv)
                check = None
                if code == 1 and pog is not None:
                    put("cert", out)
                    check = list(_call(cli, ["verify-cert", pog, "cert"]))
                emit(group, argv, code, out, err, check)
        finally:
            os.chdir(here)


def digest(limit):
    """SHA-256 of the first `limit` commands and their outputs."""
    h = hashlib.sha256()
    run_corpus(lambda *rec: h.update(json.dumps(rec).encode() + b"\n"),
               limit=limit)
    return h.hexdigest()


# -- comparing two trees --------------------------------------------------


def _outcome(code, out):
    """The exit status, and the kind of a refutation's certificate."""
    if code != 1:
        return "exit %d" % code
    try:
        obj = json.loads(out)
    except ValueError:
        return "exit 1"
    cert = obj.get("certificate") or obj
    return "exit 1 %s" % (cert.get("payload") or {}).get("kind", cert.get("tag"))


def _runs(rec):
    """(group, argv, code, stdout, stderr) of a record's command and of
    its verify-cert, if any."""
    group, argv, code, out, err, check = rec
    yield " ".join(group), argv, code, out, err
    if check is not None:
        yield "verify-cert " + " ".join(group), ["verify-cert"], *check


def _child(src, path):
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.Popen([sys.executable, os.path.abspath(__file__),
                             "--child", path],
                            env=env, cwd=tempfile.gettempdir())


def _records(path):
    with open(path) as fh:
        for line in fh:
            yield json.loads(line)


def compare(old, new):
    with tempfile.TemporaryDirectory(prefix="pogc-parity-out-") as tmp:
        paths = [os.path.join(tmp, side) for side in ("old", "new")]
        procs = [_child(os.path.join(os.path.abspath(tree), "src"), p)
                 for tree, p in zip((old, new), paths)]
        if any([p.wait() for p in procs]):  # wait for both before cleanup
            print("a child process failed")
            return 2
        tally, first, differ, total = {}, {}, 0, 0
        for a, b in itertools.zip_longest(*map(_records, paths)):
            a, b = (list(_runs(r)) if r else [] for r in (a, b))
            for k in range(max(len(a), len(b))):
                x, y = (r[k] if k < len(r) else None for r in (a, b))
                group = (x or y)[0]
                key = (group, _outcome(*y[2:4]) if y else "missing")
                tally[key] = tally.get(key, 0) + 1
                total += 1
                if x != y:
                    differ += 1
                    first.setdefault(group, (x, y))
    for group, (a, b) in sorted(first.items()):
        print("first difference in %s:" % group)
        for side, rec in (("OLD", a), ("NEW", b)):
            print("  %s: %s" % (side, "no command" if rec is None else json.dumps(
                dict(zip(("argv", "exit", "stdout", "stderr"), rec[1:])))))
    for group in sorted({g for g, _ in tally}):
        runs = {o: c for (g, o), c in tally.items() if g == group}
        print("%-36s %6d  %s" % (group, sum(runs.values()), ", ".join(
            "%s: %d" % oc for oc in sorted(runs.items()))))
    print("%d commands, %d differ" % (total, differ))
    return 1 if differ else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs="*", metavar="TREE", help="OLD and NEW")
    ap.add_argument("--child", metavar="OUT", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:  # run the corpus on the importable pogc, records to OUT
        with open(args.child, "w") as fh:
            run_corpus(lambda *rec: fh.write(json.dumps(rec) + "\n"))
        return 0
    if len(args.trees) != 2:
        ap.error("give two source trees, OLD and NEW")
    return compare(*args.trees)


if __name__ == "__main__":
    sys.exit(main())
