"""The CTL* tableau: the closure automaton and its product with a structure,
against the per-state product oracle, with guards on the work per sweep."""

import pytest

from vacmc import formula as F
from vacmc import mc
from vacmc.errors import EvalError
from vacmc.formula import parse_formula as p
from vacmc.mc import _Evaluator, check_ctl_star, eval_mask

from helpers import eval_on_lasso, oracle_atom_graph, rand_kripke, shaped_kripke

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


def rand_structure(rng, max_states):
    n = rng.randint(1, max_states)
    if n <= 6:
        return rand_kripke(rng, n)
    return shaped_kripke(rng, "random", n, density=0.4)


def assert_same_graph(k, phi):
    """The product equals the oracle's atom for atom, edge for edge and SCC
    for SCC, with the same verdicts and witness lassos, and each lasso replays."""
    new, old = _Evaluator(k).graph(phi), oracle_atom_graph(k, phi)
    assert len(new.temporal) == len(old.temporal)
    assert new.e_mask() == old.e_mask()
    assert new.atoms == [si for si, _ in old.atoms]
    assert new.adj == old.adj
    assert new.sccs == old.sccs
    body = phi.child if isinstance(phi, F.PathE) else F.Not(phi.child)
    for s in k.states:
        got = new.lasso(s)
        assert got == old.lasso(s)
        assert (got is not None) == bool(new.e_mask() >> k.index(s) & 1)
        if got is not None:
            stem, loop = got
            path = tuple(stem + loop)
            assert path[0] == s
            assert all(b in k.successors(a) for a, b in zip(path, path[1:]))
            assert path[len(stem)] in k.successors(path[-1])
            assert eval_on_lasso(k, path, len(stem), body), F.render_formula(body)
    return new


class TestAgainstPerStateProduct:
    def test_hand_picked_formulas(self, rng, fx):
        structures = [fx("O"), fx("P"), fx("U"), fx("V")] + [rand_structure(rng, 12) for _ in range(4)]
        for k in structures:
            for text in BODIES:
                for quant in "EA":
                    assert_same_graph(k, p(f"{quant}({text})"))

    def test_random_formulas_on_random_graphs(self, rng):
        sizes, cases = set(), 0
        while cases < 60:
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
        assert {t for t, _ in sizes} == set(range(1, 9)) and (1, True) in sizes

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
                    assert g.adj[a] == []
                    torn += 1
        assert torn > 10


class TestCounters:
    def test_exact_counts_on_l(self, fx):
        g = _Evaluator(fx("L")).graph(p("E(F G p & (p U X p))"))
        assert (len(g.temporal), len(g.atoms), sum(map(len, g.adj)), len(g.sccs)) == (4, 9, 9, 9)
        assert g.e_mask() == 1 and sum(g.good) == 1

    def test_a_sweep_builds_one_closure(self, rng, monkeypatch):
        built = []

        class Counting(mc._Closure):
            def __init__(self, pathform):
                built.append(pathform)
                super().__init__(pathform)

        monkeypatch.setattr(mc, "_Closure", Counting)
        x = F.Atom("x")
        for text in ("E (G F x & F !p)", "A (x U (q R X x)) | EG x"):
            k = rand_kripke(rng, 5)
            phi = p(text)
            built.clear()
            verdicts = list(mc.sweep(k, phi, x))
            assert len(verdicts) == 1 << k.n and len(built) == 1
            for mask, value in verdicts:
                here = F.SetAtom(k.name, k.names_of(mask), ref=k)
                assert value == check_ctl_star(k, F.substitute(phi, x, here))


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
