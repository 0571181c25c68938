"""Seeded generators for the four benchmark workloads.

A workload is a fixed schedule of shapes and sizes; the seed only draws the
random edges and labels inside each shape, so every seed gives the same mix
of work and the percentiles stay comparable across seeds.  Each query is one
`vacmc` CLI invocation on generated `.kr` files (or, where the CLI has no
subcommand for it, one library call), with an expected answer that is
computed by `oracle` outside the timed region.
"""

import hashlib
import os
import random
from dataclasses import dataclass, field

import oracle as O
from oracle import ap

WORKLOADS = ("large-ctl", "ctlstar-tableau", "vacuity-sweep", "bisim-reduce")

# Deep nesting past the interpreter's recursion limit; at this commit the
# recursive evaluator raises RecursionError on it (recorded known failure).
DEEP_LEVELS = 320
KNOWN_DEEP_FAILURE = "RecursionError"


@dataclass
class Query:
    """One invocation and how to judge it.

    `expect()` returns the fields the outcome summary must match; `replay`,
    when given, checks the parsed result against a definition and its
    verdict is matched as the field "replay".
    """

    family: str
    argv: list = None
    direct: tuple = None
    expect: object = None
    replay: object = None
    known_failure: str = None


@dataclass
class Workload:
    name: str
    queries: list = field(default_factory=list)
    files: dict = field(default_factory=dict)

    def add_model(self, workdir, model):
        path = os.path.join(workdir, model.name + ".kr")
        self.files[path] = model.render()
        return path

    def input_hash(self, workdir):
        """Digest of the generated inputs, independent of where they live."""
        h = hashlib.sha256()
        for path in sorted(self.files):
            h.update(os.path.relpath(path, workdir).encode() + b"\0" + self.files[path].encode())
        for q in self.queries:
            parts = q.argv if q.argv is not None else q.direct
            h.update(repr([os.path.relpath(p, workdir) if p.startswith(workdir) else p for p in parts]).encode())
        return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Model shapes


def _labels(rng, n, density, props):
    """Exactly round(density * n) states carry each proposition, at random places."""
    out = {}
    for p in props:
        chosen = set(rng.sample(range(n), round(density[p] * n)))
        out[p] = ["T" if i in chosen else "F" for i in range(n)]
    return out


def chain(rng, name, n, density=0.3):
    """s0 -> s1 -> ... -> s(n-1) with a self-loop at the end; p only there."""
    labels = {"p": ["F"] * (n - 1) + ["T"], "q": _labels(rng, n, {"q": density}, "q")["q"]}
    return O.Model(name, [[i + 1] for i in range(n - 1)] + [[n - 1]], labels)


def ring(rng, name, n, density=0.3):
    """A cycle with p only at the state farthest from s0."""
    labels = {"p": ["F"] * (n - 1) + ["T"], "q": _labels(rng, n, {"q": density}, "q")["q"]}
    return O.Model(name, [[(i + 1) % n] for i in range(n)], labels)


def ladder(rng, name, rungs, density=0.3):
    """Two rails; each step goes to either rail of the next rung; p at the last rung."""
    n = 2 * rungs
    succ = [[2 * (i + 1), 2 * (i + 1) + 1] if i < rungs - 1 else [2 * i, 2 * i + 1]
            for i in range(rungs) for _ in (0, 1)]
    labels = {"p": ["F"] * (n - 2) + ["T", "T"], "q": _labels(rng, n, {"q": density}, "q")["q"]}
    return O.Model(name, succ, labels)


def random_graph(rng, name, n, degree=3, density=None, props=("p", "q")):
    density = density or {p: 0.3 for p in props}
    succ = [rng.sample(range(n), degree) for _ in range(n)]
    return O.Model(name, succ, _labels(rng, n, density, props))


def with_maybe(rng, model, name, prop, share):
    labels = {p: list(v) for p, v in model.labels.items()}
    for i in rng.sample(range(model.n), round(share * model.n)):
        labels[prop][i] = "M"
    return O.Model(name, model.succ, labels, model.init, model.names)


# ---------------------------------------------------------------------------
# Helpers for expected answers


def _check(model, f):
    return lambda: {"exit": 0, "value": O.holds(model, f)}


def _check3(model, f):
    return lambda: {"exit": 0, "value": O.holds3(model, f)}


def _vacuity_reduction(model, phi, sub, route):
    """Expected verdict of the K||chi routes, from the oracle's own product."""
    phix = O.substitute(phi, sub, ap("x"))

    def expect():
        if route == "satx":
            vacuous = O.holds(O.chi_product(model, "x"), phix)
        else:  # falx: every variant refutes, decided per initial state
            vacuous = any(O.holds(O.chi_product(O.Model("r", model.succ, model.labels, (i,)), "x"),
                                  ("not", phix)) for i in model.init)
        return {"exit": 0, "status": "vacuous" if vacuous else "non-vacuous", "route": route}

    return expect


def _monotone(model, phi, sub):
    def expect():
        vt = O.holds(model, O.substitute(phi, sub, ("true",)))
        vf = O.holds(model, O.substitute(phi, sub, ("false",)))
        return {"exit": 0, "status": "vacuous" if vt == vf else "non-vacuous", "route": "monotone"}

    return expect


def _cli(cmd, path, *rest):
    return [cmd, path, *rest, "--format", "json"]


# ---------------------------------------------------------------------------
# large-ctl


P, Q = ap("p"), ap("q")


def large_ctl(rng, workdir):
    w = Workload("large-ctl")
    ef_and_response = ("and", ("EF", P), ("AG", ("imp", Q, ("AF", P))))
    until_or_eg = ("or", ("EU", ("not", P), Q), ("EG", ("not", P)))
    response = ("AG", ("imp", Q, ("AF", P)))
    three_valued = (response, ("and", ("EF", Q), ("EG", ("not", P))))
    # Sat side: AF (p | (q & !q)) is vacuous in q; AG (AX q | AX !q) is not.
    sat_vacuous = ("AF", ("or", P, ("and", Q, ("not", Q))))
    sat_non_vacuous = ("AG", ("or", ("AX", Q), ("AX", ("not", Q))))
    # Fal side: EG (!p & (q | !q)) is vacuous in q; EF (EX q & EX !q) is not.
    fal_vacuous = ("EG", ("and", ("not", P), ("or", Q, ("not", Q))))
    fal_non_vacuous = ("EF", ("and", ("EX", Q), ("EX", ("not", Q))))

    def vacuity(m, path, phi, route):
        w.queries.append(Query(f"vacuity-{route}", _cli("vacuity", path, O.render(phi), "--sub", "q"),
                               expect=_vacuity_reduction(m, phi, Q, route)))

    for r in range(2):
        deterministic = [chain(rng, f"chain{r}{i}", n) for i, n in enumerate((400, 800))]
        deterministic.append(ring(rng, f"ring{r}", 600))
        ladder_model = ladder(rng, f"ladder{r}", 300)
        randoms = [random_graph(rng, f"rand{r}{i}", n, density={"p": 0.05, "q": 0.3})
                   for i, n in enumerate((1000, 3000))]
        for i, m in enumerate(deterministic + [ladder_model] + randoms):
            path = w.add_model(workdir, m)
            for f in (ef_and_response, until_or_eg):
                w.queries.append(Query("ctl", _cli("check", path, O.render(f)), expect=_check(m, f)))
            w.queries.append(Query("vacuity-monotone", _cli("vacuity", path, O.render(response), "--sub", "q"),
                                   expect=_monotone(m, response, Q)))
            m3 = with_maybe(rng, m, m.name + "_3v", "q", 0.1)
            f = three_valued[i % 2]
            w.queries.append(Query("ctl-3valued", _cli("check", w.add_model(workdir, m3), O.render(f)),
                                   expect=_check3(m3, f)))
            if m in deterministic:
                vacuity(m, path, sat_vacuous, "satx")
                vacuity(m, path, sat_non_vacuous, "satx")
                vacuity(m, path, fal_non_vacuous, "falx")
            if m.name.startswith(("chain", "ladder")):
                vacuity(m, path, fal_vacuous, "falx")

    deep = P
    for _ in range(DEEP_LEVELS):
        deep = ("AX", deep)
    path = w.add_model(workdir, deterministic[-1])
    w.queries.append(Query("ctl-deep", _cli("check", path, O.render(deep)), expect=_check(deterministic[-1], deep),
                           known_failure=KNOWN_DEEP_FAILURE))
    return w


# ---------------------------------------------------------------------------
# ctlstar-tableau

def _gf(f):
    return f"(G F {f})"


def ctlstar_tableau(rng, workdir):
    w = Workload("ctlstar-tableau")
    props = ("p", "q", "r")
    a, b, c = props
    graphs = [(r, n) for r in range(3) for n in (30, 40, 55, 70, 90, 120, 150)]
    for i, (replica, n) in enumerate(graphs):
        m = random_graph(rng, f"g{i}", n, density={"p": 0.35, "q": 0.35, "r": 0.6}, props=props)
        # s0 carries no proposition, so the nested until/release checks never build
        # a witness lasso, whatever the seed.
        for p in props:
            if m.labels[p][0] == "T":
                j = m.labels[p].index("F")
                m.labels[p][0], m.labels[p][j] = "F", "T"
        path = w.add_model(workdir, m)
        t = {p: m.true_set(p) for p in props}
        nt = {p: [not v for v in t[p]] for p in props}

        def add(family, text, expect):
            w.queries.append(Query(family, _cli("check", path, text), expect=expect))

        if n <= 55:
            add("fairness-6", f"E({_gf(a)} & {_gf(b)} & (F G {c}))",
                lambda m=m, t=t: {"exit": 0, "value": O.e_fair(m, [t[a], t[b]], t[c])})
        if i % 2:
            add("fairness-4", f"A({_gf(a)} -> {_gf(b)})",
                lambda m=m, t=t, nt=nt: {"exit": 0, "value": not O.e_fair(m, [t[a]], nt[b])})
        else:
            add("fairness-4", f"E({_gf(a)} & (F G !{b}))",
                lambda m=m, t=t, nt=nt: {"exit": 0, "value": O.e_fair(m, [t[a]], nt[b])})
        # E(a U (b U c)) equals the CTL E[a U E[b U c]]; its negation is A(!a R (!b R !c)).
        nested = ("EU", ap(a), ("EU", ap(b), ap(c)))
        add("nested-until", f"E({a} U ({b} U {c}))", _check(m, nested))
        add("nested-release", f"A(!{a} R (!{b} R !{c}))", _check(m, ("not", nested)))
        nested3 = ("EU", ap(a), ("EU", ap(b), ("EU", ap(c), ap(a))))
        add("nested-until", f"E({a} U ({b} U ({c} U {a})))", _check(m, nested3))
        k = 3 if n <= 40 else 2
        add("next-k", f"E(({' '.join(['X'] * k)} {a}) & (F {b}))",
            lambda m=m, t=t, k=k: {"exit": 0, "value": O.e_next_k_and_eventually(m, k, t[a], t[b])})
        if n == 30 and replica == 0:
            add("fairness-8", f"E({_gf(a)} & {_gf(b)} & {_gf(c)} & (F G !{a}))",
                lambda m=m, t=t, nt=nt: {"exit": 0, "value": O.e_fair(m, [t[a], t[b], t[c]], nt[a])})
        # More temporal operators than the tableau accepts: refused with exit 1.
        add("over-cap", f"E({' '.join(['X'] * 15)} {a})", lambda: {"exit": 1})
    return w


# ---------------------------------------------------------------------------
# vacuity-sweep


def branching(rng, name, n):
    """Random out-degree-2 graph with s0 |= p and a successor of s0 without p."""
    m = random_graph(rng, name, n, degree=2, density={"p": 0.4, "q": 0.4})
    m.labels["p"][0] = "T"
    j = next((j for j in m.succ[0] if j != 0), None)
    if j is None:
        j = 1
        m.succ[0] = sorted({1, *m.succ[0]})
    m.labels["p"][j] = "F"
    return m


def lasso(rng, name, n):
    """Deterministic: a stem of n // 3 states into a cycle, random labels."""
    succ = [[i + 1] for i in range(n - 1)] + [[n // 3]]
    return O.Model(name, succ, _labels(rng, n, {"p": 0.5, "q": 0.5}, "pq"))


X = ap("x")


def _sweep_expect(model, phi, status, route, premise):
    """Expected (status, route) fixed by the family, after the oracle confirms
    the premise the family rests on: whether all x-variants agree."""
    phix = O.substitute(phi, P, X)

    def expect():
        verdicts = O.sweep_verdicts(model, phix, "x")
        if verdicts != premise:
            return {"premise": f"x-variants gave {sorted(verdicts)}"}
        return {"exit": 2 if status == "unknown" else 0, "status": status, "route": route}

    return expect


def _variant_expect(model, phi):
    """Variant-witness: K's own sweep agrees, K||chi_y's x-variants do not."""
    phix = O.substitute(phi, P, X)

    def expect():
        if O.sweep_verdicts(model, phix, "x") != {True}:
            return {"premise": "x-variants of K disagree"}
        status = "non-vacuous" if len(O.sweep_verdicts(O.chi_product(model, "y"), phix, "x")) > 1 else "unknown"
        return {"exit": 0, "status": status, "route": "variant-witness"}

    return expect


def _structure_expect(model, kind, body, x="x"):
    def expect():
        verdicts = O.sweep_verdicts(model, body, x)
        value = verdicts == {True} if kind == "forall" else True in verdicts
        return {"exit": 0, "value": value, "route": "BruteForceY"}

    return expect


def _deterministic(m):
    return len(m.init) == 1 and all(len(s) == 1 for s in m.succ)


def vacuity_sweep(rng, workdir):
    w = Workload("vacuity-sweep")
    valid = ("AG", ("or", ("AX", P), ("EX", ("not", P))))
    unsat = ("and", ("AX", P), ("EX", ("not", P)))
    witness = ("EF", ("and", P, ("EX", ("not", P))))
    det_body = ("or", ("AG", ("or", ("AX", P), ("AX", ("not", P)))), ("EF", ("and", P, ("not", P))))

    def vac(m, path, phi, status, route, premise, *extra):
        argv = _cli("vacuity", path, O.render(phi), "--sub", "p", *extra)
        w.queries.append(Query(f"vacuity-{route}-{status}", argv,
                               expect=_sweep_expect(m, phi, status, route, premise)))

    for i, n in enumerate((8, 10, 12)):
        m = branching(rng, f"b{i}", n)
        path = w.add_model(workdir, m)
        vac(m, path, valid, "unknown", "unknown", {True})
        vac(m, path, valid, "vacuous", "bounded-validity", {True}, "--bounded-validity", "2")
        vac(m, path, unsat, "unknown", "unknown", {False})
        vac(m, path, witness, "non-vacuous", "structure-witness", {True, False})
        vac(m, path, witness, "non-vacuous", "thorough", {True, False}, "--via", "thorough")
    for i, n in enumerate((7, 10)):
        m = branching(rng, f"c{i}", n)
        path = w.add_model(workdir, m)
        vac(m, path, unsat, "vacuous", "bounded-validity", {False}, "--bounded-validity", "2")
        vac(m, path, valid, "unknown", "thorough", {True}, "--via", "thorough")
    for i, n in enumerate((5, 6, 9, 11)):
        m = lasso(rng, f"d{i}", n)
        path = w.add_model(workdir, m)
        if n <= 6:
            w.queries.append(Query("vacuity-variant-witness",
                                   _cli("vacuity", path, O.render(det_body), "--sub", "p"),
                                   expect=_variant_expect(m, det_body)))
        else:
            vac(m, path, det_body, "unknown", "unknown", {True})

    # Quantified CTL under the three semantics.
    sep = ("AG", ("or", ("AX", X), ("AX", ("not", X))))
    spread = ("EF", ("and", X, ("EX", ("not", X))))
    for i, n in enumerate((6, 8, 10)):
        for m in (branching(rng, f"e{i}", n), lasso(rng, f"f{i}", n)):
            path = w.add_model(workdir, m)
            det = _deterministic(m)

            def qctl(kind, body, sem, expect):
                text = f"{kind} x . {O.render(body)}"
                family = f"qctl-{sem}-{kind}-{'deterministic' if det else 'branching'}"
                w.queries.append(Query(family, _cli("qctl", path, text, "--semantics", sem),
                                       expect=expect))

            qctl("forall", sep, "structure", _structure_expect(m, "forall", sep))
            qctl("exists", spread, "structure", _structure_expect(m, "exists", spread))
            qctl("forall", sep, "bisim",
                 lambda m=m: {"exit": 0, "value": O.holds(O.chi_product(m, "x"), sep), "route": "KParallelX"})
            qctl("exists", spread, "bisim",
                 lambda m=m: {"exit": 0, "value": not O.holds(O.chi_product(m, "x"), ("not", spread)),
                              "route": "Duality"})
            if det:
                # pathify(AG (AX x | AX !x)) = A G (X x | X !x): valid.
                qctl("forall", sep, "tree", lambda: {"exit": 0, "value": True, "route": "DeterministicCollapse"})
            else:
                qctl("forall", sep, "tree",
                     lambda m=m: {"exit": 0, "value": O.sweep_verdicts(m, sep, "x") == {True},
                                  "route": "ChainImplication"})
            qctl("exists", spread, "tree",
                 lambda m=m: {"exit": 0, "value": True in O.sweep_verdicts(m, spread, "x"), "route": "Duality"})
            if n <= 8:
                # A((X x) | (X !x)) is valid; each of the 2^n labelings builds a tableau.
                argv = _cli("qctl", path, "forall x . A ((X x) | (X !x))", "--semantics", "structure")
                w.queries.append(Query("qctl-path-structure", argv,
                                       expect=lambda: {"exit": 0, "value": True, "route": "BruteForceY"}))
    w.queries.append(Query("table1", ["table1"], expect=lambda: {"exit": 0, "golden": True}))
    return w


# ---------------------------------------------------------------------------
# bisim-reduce


def uniform_ring(name, n, period):
    labels = {"p": ["T" if i % period == 0 else "F" for i in range(n)], "q": ["F"] * n}
    return O.Model(name, [[(i + 1) % n] for i in range(n)], labels)


def _relation_expect(model, dup):
    cls = O.bisim_classes(model)

    def expect():
        pairs = sorted([model.names[i], dup.names[j]] for i in range(model.n) for j in range(dup.n)
                       if cls[i] == cls[j // 2])
        return {"exit": 0, "value": True, "pairs": len(pairs), "pairs_sha": digest(pairs)}

    return expect


def digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _simulation_replay(left, right):
    """The reported pairs form a simulation of `right` by `left` covering right's inits."""
    def replay(result):
        pairs = {tuple(p) for p in result.get("relation", ())}
        li = {s: i for i, s in enumerate(left.names)}
        ri = {s: i for i, s in enumerate(right.names)}
        for s, t in pairs:
            a, b = li[s], ri[t]
            if any(left.labels[p][a] != right.labels[p][b] for p in right.props):
                return False
            for b2 in right.succ[b]:
                if not any((left.names[a2], right.names[b2]) in pairs for a2 in left.succ[a]):
                    return False
        return all(any((s, right.names[t]) in pairs for s in (left.names[i] for i in left.init))
                   for t in right.init)

    return replay


def bisim_reduce(rng, workdir):
    w = Workload("bisim-reduce")
    # Uniform labels except p at the end: refinement needs one round per state.
    deep = [chain(rng, f"chain{i}", n, 0.0) for i, n in enumerate((40, 70, 100))]
    deep += [uniform_ring(f"ring{i}", n, period) for i, (n, period) in enumerate(((60, 1), (120, 1), (90, 3)))]
    shallow = [random_graph(rng, f"rand{i}", n) for i, n in enumerate((40, 70, 100, 150, 200) * 2)]
    for m in deep + shallow:
        path = w.add_model(workdir, m)
        dup = O.duplicate(m, m.name + "_2")
        dpath = w.add_model(workdir, dup)
        w.queries.append(Query("bisim", _cli("bisim", path, dpath, "--props", "p,q"),
                               expect=_relation_expect(m, dup)))
        cls = O.bisim_classes(m)
        w.queries.append(Query("quotient", _cli("quotient", path),
                               expect=lambda cls=cls: {"exit": 0, "states": max(cls) + 1}))
        quot = O.quotient(m, m.name + "_q")
        if m.n <= 100 and not (m.name.startswith("chain") and m.n > 40):
            qpath = w.add_model(workdir, quot)
            w.queries.append(Query("simulates", _cli("simulates", path, qpath, "--props", "p,q"),
                                   expect=lambda: {"exit": 0, "value": True, "replay": True},
                                   replay=_simulation_replay(m, quot)))
        # A set atom of K evaluated on K^(2) is resolved through bisimilar_over(K, K^(2)).
        picks = sorted(rng.sample(range(m.n), 2))
        atom = "{" + ",".join(m.names[i] for i in picks) + "}@" + m.name
        closed = [1 if cls[i] in {cls[j] for j in picks} else 0 for i in range(m.n)]
        env = dict(O.classical_env(m), target=closed)
        w.queries.append(Query("foreign-setatom", direct=("foreign", path, dpath, f"EF {atom}"),
                               expect=lambda m=m, env=env: {"value": O.holds(m, ("EF", ap("target")), env)}))
        if m.n <= 100 and not (m.name.startswith("chain") and m.n > 40):
            m3 = with_maybe(rng, m, m.name + "_3v", "q", 0.2)
            path3 = w.add_model(workdir, m3)
            # The refinement relation of K_3v and K must contain the identity.
            w.queries.append(Query("refinement", direct=("refinement", path3, path),
                                   expect=lambda: {"value": True, "replay": True},
                                   replay=lambda pairs, names=m.names: all((s, s) in pairs for s in names)))
    for m in (deep[3], deep[0], shallow[1]):
        path = w.add_model(workdir, m)
        w.queries.append(Query("qctl-bisim", _cli("qctl", path, "forall x . AG ((AX x) | (EX !x))",
                                                  "--semantics", "bisim"),
                               expect=lambda: {"exit": 2, "value": None, "route": "Unknown"}))
    return w


GENERATORS = {
    "large-ctl": large_ctl,
    "ctlstar-tableau": ctlstar_tableau,
    "vacuity-sweep": vacuity_sweep,
    "bisim-reduce": bisim_reduce,
}


def generate(name, seed, workdir):
    rng = random.Random(f"{name}:{seed}")
    return GENERATORS[name](rng, workdir)
