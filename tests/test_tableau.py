"""The CTL* tableau: the closure automaton and its product with a structure,
against the per-state product oracle, with guards on the work per sweep."""

import pytest

from vacmc import formula as F
from vacmc import mc
from vacmc.errors import EvalError
from vacmc.formula import parse_formula as p
from vacmc.kripke import KripkeStructure, mask_members, restrict_init
from vacmc.mc import _Evaluator, check_and_explain, check_ctl_star, eval_mask
from vacmc.three_valued import vacuity_via_thorough
from vacmc.vacuity import VacuityStatus, decide_bisim_vacuity

from helpers import eval_on_lasso, oracle_atom_graph, per_mask, rand_kripke, ring, shaped_kripke

# Hand-picked bodies: every temporal operator, negation, implication,
# constants, nested path quantifiers, and two laws on one node (X F p with !F p).
BODIES = [
    "X F p & !F p",
    "(X F p) -> F p",
    "G F p & F G !p",
    "(p U q) R (X !q)",
    "F (p & X X q) | G (q -> X p)",
    "true U (X false | G p)",
    "F E(G p) & X A(p U q)",
    "X X X X p & F G q & (p U q) & (q R p)",
    "!(G (p -> X (q U !p)))",
    "p",
]


def rand_body(rng, props, depth):
    """A path formula over X/U/R/F/G, !, &, |, ->, constants and state
    subformulas with path quantifiers of their own."""
    if depth <= 0 or rng.random() < 0.2:
        r = rng.random()
        if depth > 0 and r < 0.25:
            return rng.choice([F.PathE, F.PathA])(rand_body(rng, props, depth - 1))
        return F.Atom(rng.choice(props)) if r < 0.9 else rng.choice([F.TRUE, F.FALSE])
    c = rng.randrange(10)
    if c == 0:
        return F.Not(rand_body(rng, props, depth - 1))
    if c < 4:
        node = (F.And, F.Or, F.Implies)[c - 1]
        return node(rand_body(rng, props, depth - 1), rand_body(rng, props, depth - 1))
    if c < 7:
        return (F.Next, F.Future, F.Globally)[c - 4](rand_body(rng, props, depth - 1))
    node = F.Until if c < 9 else F.Release
    return node(rand_body(rng, props, depth - 1), rand_body(rng, props, depth - 1))


@pytest.fixture
def built(monkeypatch):
    """The formulas of the closure automata built during the test, in order."""
    made = []

    class Counting(mc._Closure):
        def __init__(self, pathform):
            made.append(pathform)
            super().__init__(pathform)

    monkeypatch.setattr(mc, "_Closure", Counting)
    return made


def rand_structure(rng, max_states):
    n = rng.randint(1, max_states)
    if n <= 6:
        return rand_kripke(rng, n)
    return shaped_kripke(rng, "random", n, density=0.4)


def reached_from(old, starts):
    """The oracle's nodes reachable from the root atoms of the states of starts."""
    todo = [a for si in mask_members(starts) for a in old.per_state[si] if old.vals[a][old.root]]
    seen = set(todo)
    for v in todo:
        for w in old.adj[v]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def oracle_ids(new, old):
    """The oracle's node for each node of new: a state's nodes are given out
    together, in the sigma order of the oracle's atoms of that state."""
    seen = [0] * new.k.n
    ids = []
    for si in new.atoms:
        ids.append(old.per_state[si][seen[si]])
        seen[si] += 1
    assert all(seen[si] in (0, len(old.per_state[si])) for si in range(new.k.n))
    return ids


def assert_lasso_replays(k, s, got, body):
    stem, loop = got
    path = tuple(stem + loop)
    assert path[0] == s
    assert all(b in k.successors(a) for a, b in zip(path, path[1:]))
    assert path[len(stem)] in k.successors(path[-1])
    assert eval_on_lasso(k, path, len(stem), body), F.render_formula(body)


def assert_same_graph(k, phi):
    """The every-state product equals the oracle's atom for atom and, on the
    nodes reached from root atoms, edge for edge and SCC for SCC, with no
    edge out of a node not reached; verdicts and witness lassos are the same,
    and each lasso replays.  The rooted graph of the check passes
    assert_rooted_graph."""
    old = oracle_atom_graph(k, phi)
    body = phi.child if isinstance(phi, F.PathE) else F.Not(phi.child)
    new = _Evaluator(k).graph(phi)
    ids = oracle_ids(new, old)
    reached = reached_from(old, k.full_mask)
    assert len(new.temporal) == len(old.temporal)
    assert sorted(ids) == list(range(len(old.atoms)))
    assert new.e_mask() == old.e_mask()
    for a, row in enumerate(new.adj):
        assert [ids[b] for b in row] == (old.adj[ids[a]] if ids[a] in reached else [])
    assert sorted(sorted(ids[a] for a in c) for c in new.sccs) == sorted(sorted(c) for c in old.sccs if c[0] in reached)
    for s in k.states:
        got = new.lasso(s)
        assert got == old.lasso(s)
        assert (got is not None) == bool(new.e_mask() >> k.index(s) & 1)
        if got is not None:
            assert_lasso_replays(k, s, got, body)
    assert_rooted_graph(k, phi, old)
    return new


def assert_rooted_graph(k, phi, old=None):
    """The graph that decides phi at the initial states against the oracle:
    every node the search entered has the oracle's successors (a prefix of
    them when its SCC was left open), and no other node has any; a completed SCC is one of the oracle's and reaches no
    accepting SCC; a node marked as reaching one does; E is credited at
    exactly the initial states where it holds, and A's E !c at some of the
    states where it holds, when there are any.  Each credited state's lasso replays."""
    old = old or oracle_atom_graph(k, phi)
    body = phi.child if isinstance(phi, F.PathE) else F.Not(phi.child)
    new = _Evaluator(k).rooted(phi)
    ids = oracle_ids(new, old)
    for a, row in enumerate(new.adj):
        want = old.adj[ids[a]] if new._num[a] >= 0 else []
        got = [ids[b] for b in row]
        assert got == (want if new.scc_of[a] >= 0 else want[:len(got)])
    oracle_sccs = {frozenset(c) for c in old.sccs}
    for comp in new.sccs:
        assert frozenset(ids[a] for a in comp) in oracle_sccs
        assert not old.can_reach_good[old.scc_of[ids[comp[0]]]]
    assert not any(new.good)
    for a, reaches in enumerate(new.reach):
        if reaches:
            assert old.can_reach_good[old.scc_of[ids[a]]]
    want, init = old.e_mask() & k.init_mask, k.init_mask
    got = new.e_mask()
    if isinstance(phi, F.PathE):
        assert got == want
    else:
        assert got & ~want == 0 and bool(got) == bool(want)
    for s in k.states:
        lasso = new.lasso(s)
        assert (lasso is not None) == bool(got >> k.index(s) & 1)
        if lasso is not None:
            assert_lasso_replays(k, s, lasso, body)
    return new


class TestAgainstPerStateProduct:
    def test_hand_picked_formulas(self, rng, fx):
        structures = [fx("O"), fx("P"), fx("U"), fx("V")] + [rand_structure(rng, 12) for _ in range(4)]
        for k in structures:
            for text in BODIES:
                for quant in "EA":
                    assert_same_graph(k, p(f"{quant}({text})"))

    def test_random_formulas_on_random_graphs(self, rng):
        # at least 60 cases, and on until every T in 1..8 and T = 1 on more
        # than 6 states have come up, whatever the seed
        sizes, cases = set(), 0
        while cases < 60 or {t for t, _ in sizes} != set(range(1, 9)) or (1, True) not in sizes:
            assert cases < 300, sorted(sizes)
            body = rand_body(rng, ("p", "q"), 4)
            temporal = len(mc._Closure(body).temporal)
            if temporal == 0 or temporal > 8:
                continue
            # candidate atoms n * 2^T stay at most 2048, so the oracle stays quick
            k = rand_structure(rng, min(40, 2048 >> temporal))
            for quant in (F.PathE, F.PathA):
                assert_same_graph(k, quant(body))
            sizes.add((temporal, k.n > 6))
            cases += 1

    def test_conflicting_laws_leave_an_atom_without_successors(self, rng):
        phi = p("E(X F p & !F p)")
        torn = 0
        for _ in range(10):
            k = rand_structure(rng, 20)
            g = assert_same_graph(k, phi)
            assert g.e_mask() == 0
            # X F p set with F p unset: the two laws pull F p both ways at the successor
            (_, f_bit, _, _), (_, xf_bit, _, _) = g.closure._steps
            for a, v in enumerate(g.vals):
                if v & xf_bit and not v & f_bit:
                    assert not g.adj[a]
                    torn += 1
        assert torn > 10


class TestCounters:
    def test_exact_counts_on_l(self, fx):
        g = _Evaluator(fx("L")).graph(p("E(F G p & (p U X p))"))
        assert (len(g.temporal), len(g.atoms), sum(map(len, g.adj)), len(g.sccs)) == (4, 9, 6, 6)
        assert g.e_mask() == 1 and sum(g.good) == 1

    def test_a_sweep_builds_one_closure(self, rng, built):
        x = F.Atom("x")
        for text in ("E (G F x & F !p)", "A (x U (q R X x)) | EG x"):
            k = rand_kripke(rng, 5)
            phi = p(text)
            built.clear()
            verdicts = per_mask(mc.sweep(k, phi, x))
            assert len(verdicts) == 1 << k.n and len(built) == 1
            for mask, value in verdicts:
                here = F.SetAtom(k.name, k.names_of(mask), ref=k)
                assert value == check_ctl_star(k, F.substitute(phi, x, here))


class TestClosureCache:
    """A path formula's closure automaton is built once per process and
    shared by the checks of every structure (the cache starts empty in each
    test, see conftest.py)."""

    def test_one_formula_on_three_structures_builds_one_closure(self, rng, built):
        for _ in range(3):
            k = rand_structure(rng, 12)
            # parsed anew each time, as each CLI query is; a check, its witness and a labelling
            check_and_explain(k, p("A(G F p | F (q & X !p))"))
            eval_mask(k, p("A(G F p | F (q & X !p))"))
        assert built == [F.Not(p("G F p | F (q & X !p)"))]

    def test_a_vacuity_query_builds_each_closure_once(self, built):
        """Without the cache the structure-witness route built 8 closures of 4
        formulas here, and the thorough route 6 of 2."""
        k, phi, psi = ring(8), p("A((X p) | (X !p)) & E(F q & G F p)"), p("p")
        routes = ((decide_bisim_vacuity, "structure-witness", 4), (vacuity_via_thorough, "thorough", 2))
        for decide, route, distinct in routes:
            mc._closure_cache.clear()
            built.clear()
            verdict = decide(phi, psi, k)
            assert (verdict.status, verdict.route) == (VacuityStatus.NON_VACUOUS, route)
            assert len(built) == len(set(built)) == distinct

    def test_past_its_bound_the_cache_drops_the_least_recently_used(self, rng, monkeypatch):
        cache = mc._closure_cache
        monkeypatch.setattr(cache, "limit", 60)
        k = ring(8)
        first = [p("E(G F p & F q)"), p("A(F G p)")]
        want = [check_and_explain(k, phi) for phi in first]
        assert all(witness is not None for _, witness in want)
        for text in BODIES:
            for quant in "EA":
                check_and_explain(rand_structure(rng, 12), p(f"{quant}({text})"))
                assert cache.size == sum(c.size for c in cache._by_formula.values()) <= 60
        assert not any(f in cache._by_formula for f in (first[0].child, F.Not(first[1].child)))
        assert [check_and_explain(k, phi) for phi in first] == want

    def test_set_atoms_resolve_in_their_own_structure(self):
        """Equal set atoms {a}@H of two structures named H share a cached
        closure; each query reads its own: H = h1 is bisimilar to K, h2 is not."""
        def kripke(name, trans):
            labels = {"a": {"p": True}, "b": {"p": False}}
            return KripkeStructure(name, ("p",), ["a", "b"], ["a"], trans, labels)

        h1, h2 = kripke("H", [("a", "b"), ("b", "b")]), kripke("H", [("a", "a"), ("b", "b")])
        k = kripke("K", [("a", "b"), ("b", "b")])
        for order in ((h1, h2), (h2, h1), (h1, h2, h1, h2)):
            mc._closure_cache.clear()
            for home in order:
                phi = F.PathE(F.And(F.Future(F.SetAtom("H", ["a"], ref=home)), F.Future(F.Not(F.Atom("p")))))
                for check in (check_ctl_star, lambda k, phi: check_and_explain(k, phi)[0]):
                    if home is h1:
                        assert check(k, phi) is True
                    else:
                        with pytest.raises(EvalError, match="set atom of 'H' on 'K': no bisimulation"):
                            check(k, phi)


class TestRootedChecks:
    """A check asks a root quantifier on the tableau route only at the
    initial states, on the product from their root atoms."""

    def test_the_initial_state_check_equals_the_full_mask(self, rng):
        """And the check's search, which stops at its first accepting cycle,
        passes assert_rooted_graph against the per-state product oracle."""
        inits, nested, stopped, cases = set(), 0, 0, 0
        while cases < 80:
            body = rand_body(rng, ("p", "q"), 4)
            if not 0 < len(mc._Closure(body).temporal) <= 6:
                continue
            k = rand_structure(rng, 12)
            k = restrict_init(k, rng.sample(k.states, rng.randint(1, min(3, k.n))))
            for quant in (F.PathE, F.PathA):
                phi = quant(body)
                for force in (False, True):
                    want = k.init_mask & eval_mask(k, phi, force_tableau=force) == k.init_mask
                    assert check_ctl_star(k, phi, force_tableau=force) == want, F.render_formula(phi)
                g = assert_rooted_graph(k, phi)
                # a search that stopped leaves nodes entered whose SCC is open
                stopped += any(n >= 0 and c < 0 for n, c in zip(g._num, g.scc_of))
                value, witness = check_and_explain(k, phi)
                assert value == want
                if witness is not None:
                    assert witness["kind"] == ("witness" if quant is F.PathE else "counterexample")
                    path = tuple(witness["stem"] + witness["loop"])
                    assert path[0] == witness["state"] and witness["state"] in k.init
                    replayed = eval_on_lasso(k, path, len(witness["stem"]), body)
                    assert replayed == (quant is F.PathE)
            inits.add(len(k.init))
            nested += any(isinstance(f, (F.PathE, F.PathA)) for f in F.subformulas(body))
            cases += 1
        assert inits == {1, 2, 3} and nested >= 10 and stopped >= 60

    def reused_evaluators(self, rng, monkeypatch, every_state_initial, texts):
        """(k, phi, evaluator of check_and_explain(k, phi)) on 20 random graphs."""
        made = []

        class Kept(mc._Evaluator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(mc, "_Evaluator", Kept)
        for _ in range(20):
            k = shaped_kripke(rng, "random", rng.randint(2, 30), density=0.4)
            if every_state_initial:
                k = restrict_init(k, k.states)
            for text in texts:
                phi = p(text)
                made.clear()
                check_and_explain(k, phi)
                (ev,) = made
                yield k, phi, ev

    def test_a_reused_evaluator_labels_every_state(self, rng, monkeypatch):
        partial = 0
        texts = ("E(G F p & F !q)", "A(p U (q U !p))", "E(X X p & F G q)")
        for k, phi, ev in self.reused_evaluators(rng, monkeypatch, False, texts):
            partial += any(starts is not None for _, starts in ev._graphs)
            assert ev.states(phi) == eval_mask(k, phi), F.render_formula(phi)
        assert partial == 60

    def test_a_reused_evaluator_labels_every_state_when_all_are_initial(self, rng, monkeypatch):
        """With init == full_mask (as in K || chi) the check's graph, which
        stopped early, is still not the one that states(phi) reads."""
        short = 0
        texts = ("E(G F p & F !q)", "A(p U (q U !p))", "A(G F p -> G F q)", "E(X X p & F G q)")
        for k, phi, ev in self.reused_evaluators(rng, monkeypatch, True, texts):
            assert k.init_mask == k.full_mask
            (rooted,) = ev._graphs.values()
            assert ev.states(phi) == eval_mask(k, phi), F.render_formula(phi)
            assert ev.graph(phi) is not rooted
            short += rooted.e_mask() != ev.graph(phi).e_mask()
        assert short >= 15

    def test_no_root_atom_builds_no_edge(self, rng, monkeypatch):
        n = 40
        states = [f"s{i}" for i in range(n)]
        trans = [(s, rng.choice(states)) for s in states for _ in range(3)]
        labels = {s: {a: i > 0 and rng.random() < 0.5 for a in "pqr"} for i, s in enumerate(states)}
        k = KripkeStructure("K", ("p", "q", "r"), states, ["s0"], trans, labels)
        phi = p("E(p U (q U r))")
        built = []

        class Counting(mc.AtomGraph):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(mc, "AtomGraph", Counting)
        assert check_and_explain(k, phi) == (False, None)
        assert [sum(map(len, g.adj)) for g in built] == [0]
        assert sum(map(len, _Evaluator(k).graph(phi).adj)) > 0


    def test_a_verdict_no_lasso_backs_builds_no_product(self, fx, monkeypatch):
        """A CTL root decided by the fixpoints gets a product only for its
        witness: when E holds or A fails."""
        built = []

        class Counting(mc.AtomGraph):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(mc, "AtomGraph", Counting)
        k = fx("M")
        for text, value, graphs in (("A(G (p | !p))", True, 0), ("E(F (p & !p))", False, 0),
                                    ("E(G (p | !p))", True, 1), ("A(F (p & !p))", False, 1)):
            built.clear()
            got, witness = check_and_explain(k, p(text))
            assert (got, witness is not None, len(built)) == (value, graphs == 1, graphs), text

    def test_a_check_enters_a_tenth_of_the_product(self, rng, monkeypatch):
        """E((X X X p) & (F q)) holds on a strongly connected 150-state graph:
        the check's search enters at most a tenth of the every-state graph's
        nodes, and builds the tables of fewer than half of its states."""
        n = 150
        states = [f"s{i}" for i in range(n)]
        phi = p("E((X X X p) & (F q))")
        built = []

        class Counting(mc.AtomGraph):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(mc, "AtomGraph", Counting)
        checked = 0
        while checked < 5:
            trans = [(s, states[(i + 1) % n]) for i, s in enumerate(states)]
            trans += [(s, rng.choice(states)) for s in states for _ in range(2)]
            labels = {s: {a: rng.random() < 0.35 for a in "pq"} for s in states}
            k = KripkeStructure("K", ("p", "q"), states, ["s0"], trans, labels)
            built.clear()
            value, witness = check_and_explain(k, phi)
            if not value:
                continue
            (g,) = built
            every = _Evaluator(k).graph(phi)
            path = tuple(witness["stem"] + witness["loop"])
            assert eval_on_lasso(k, path, len(witness["stem"]), phi.child)
            assert 10 * sum(n >= 0 for n in g._num) <= len(every.atoms)
            assert 2 * len(set(g.atoms)) < len(set(every.atoms)) == n
            checked += 1


class TestDeepPathFormulas:
    DEPTH = 2000

    def chain(self, node, item):
        f = item
        for _ in range(self.DEPTH - 1):
            f = node(f, item)
        return f

    def test_is_state_formula(self):
        assert F.is_state_formula(self.chain(F.And, F.Atom("p")))
        assert not F.is_state_formula(self.chain(F.Or, F.Next(F.Atom("p"))))
        deep = F.Atom("p")
        for _ in range(self.DEPTH):
            deep = F.Not(deep)
        assert F.is_state_formula(deep) and not F.is_state_formula(F.Not(F.And(deep, F.Future(deep))))

    def test_deep_operands_check(self, fx):
        k = fx("L")
        assert eval_mask(k, F.PathE(F.Next(self.chain(F.And, F.Atom("p"))))) == 1
        assert eval_mask(k, F.PathE(F.Future(self.chain(F.And, F.Atom("p"))))) == 1

    def test_deep_path_body_checks(self, fx):
        k = fx("M")
        phi = F.PathE(self.chain(F.Or, F.Next(F.Atom("p"))))
        assert eval_mask(k, phi) == k.full_mask
        assert len(_Evaluator(k).graph(phi).temporal) == 1
        assert eval_mask(k, F.PathA(self.chain(F.Or, F.Next(F.Not(F.Atom("p")))))) == 0

    def test_a_deep_temporal_chain_is_refused(self, fx):
        f = F.Atom("p")
        for _ in range(self.DEPTH):
            f = F.Next(f)
        with pytest.raises(EvalError, match="closure too large"):
            eval_mask(fx("L"), F.PathE(F.And(f, F.Future(F.Atom("p")))))
