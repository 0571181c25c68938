import itertools

import pytest

from vacmc import formula as F
from vacmc import mc
from vacmc.bisim import quotient_bisim
from vacmc.errors import EvalError
from vacmc.formula import parse_formula as p
from vacmc.kleene import M3
from vacmc.kripke import KripkeStructure, duplicate_m, load_fixture
from vacmc.mc import (
    StateSet,
    _chunks,
    _Evaluator,
    _LaneSweep,
    check_ctl_star,
    eval_mask,
    eval_states,
    explain_path,
)

from helpers import (
    FrontierEvaluator,
    eval_on_lasso,
    oracle_e_path,
    rand_actl_star,
    rand_ctl,
    rand_kripke,
    rand_kripke3,
    rand_path,
    shaped_kripke,
    transpose,
)

P4 = p("AG ((AX p) | (AX !p))")


class TestEvalStates:
    def test_o_satisfies_p4_everywhere(self, fx):
        got = eval_states(fx("O"), P4)
        assert isinstance(got, StateSet)
        assert set(got.names) == {"o0", "o1"}
        assert check_ctl_star(fx("O"), P4)

    def test_o_refutes_p4_q(self, fx):
        got = eval_states(fx("O"), p("AG ((AX q) | (AX !q))"))
        assert "o0" not in got.names
        assert not check_ctl_star(fx("O"), p("AG ((AX q) | (AX !q))"))

    def test_ef_q_reachability(self, fx):
        k = fx("P")
        # independent oracle: explicit reachability closure to q-states
        reach = {s: {s} for s in k.states}
        changed = True
        while changed:
            changed = False
            for s in k.states:
                for t in k.successors(s):
                    if not reach[t] <= reach[s]:
                        reach[s] |= reach[t]
                        changed = True
        expect = {s for s in k.states if any(k.label3(t, "q").value == "true" for t in reach[s])}
        assert set(eval_states(k, p("EF q")).names) == expect == {"c0", "c1"}

    def test_unknown_prop_rejected(self, fx):
        with pytest.raises(EvalError, match="proposition"):
            eval_states(fx("L"), p("EF z"))

    def test_quantifier_rejected(self, fx):
        with pytest.raises(EvalError):
            eval_states(fx("L"), p("forall x . AG x"))

    def test_three_valued_rejected(self, fx):
        from vacmc.three_valued import lift_kx

        with pytest.raises(EvalError, match="3-valued"):
            eval_states(lift_kx(fx("L"), "x"), p("p"))


class TestCheckCtlStar:
    def test_p5_examples(self, fx):
        assert check_ctl_star(fx("P"), p("A((X q) -> X X q)"))
        assert not check_ctl_star(fx("P"), p("A(p -> X p)"))

    def test_propositional_path_tautology(self, fx):
        assert check_ctl_star(fx("L"), p("A((X p) | (X !p))"))

    def test_multiple_initial_states(self, fx):
        # chi has two initial states; x holds in only one of them
        assert not check_ctl_star(fx("chi"), p("x"))
        assert check_ctl_star(fx("chi"), p("x | !x"))


class TestCtlPathAgreement:
    def test_fixpoint_equals_tableau(self, rng, fx):
        pool = [rand_ctl(rng, ("p", "q"), 3) for _ in range(25)]
        structures = [fx("P"), fx("U"), fx("O")] + [rand_kripke(rng, 4) for _ in range(6)]
        for k in structures:
            for phi in pool:
                assert eval_mask(k, phi) == eval_mask(k, phi, force_tableau=True), F.render_formula(phi)


class TestFrontierFixpoints:
    FORMS = ("E[{l} U {r}]", "A[{l} U {r}]", "E[{l} R {r}]", "A[{l} R {r}]", "EF {r}", "AF {r}", "EG {r}", "AG {r}")
    OPERANDS = (("q", "p"), ("!p | q", "p & !q"), ("EX q", "p | AX q"))

    def test_frontier_equals_tableau_on_deep_and_random_graphs(self, rng):
        shapes = [("random", 100), ("random", 200), ("random", 300),
                  ("chain", 300), ("ring", 250), ("ladder", 200)]
        sizes = set()
        for shape, n in shapes:
            k = shaped_kripke(rng, shape, n, density=0.5)
            for (l, r), form in itertools.product(self.OPERANDS, self.FORMS):
                phi = p(form.format(l=f"({l})", r=f"({r})"))
                got = eval_mask(k, phi)
                assert got == eval_mask(k, phi, force_tableau=True), (k.name, form, l, r)
                sizes.add(got.bit_count())
        assert len(sizes) > 50

    def test_backward_reach_crosses_a_long_chain(self, rng):
        k = shaped_kripke(rng, "chain", 300, density=0.0)
        last = F.SetAtom(k.name, ["s299"])
        assert eval_mask(k, F.PathE(F.Future(last))) == k.full_mask
        assert eval_mask(k, F.PathA(F.Until(F.Not(last), last))) == k.full_mask
        assert eval_mask(k, F.PathE(F.Globally(F.Not(last)))) == 0


class TestWorklistFixpoints:
    """The linear worklists against the per-round frontier fixpoints they replaced."""

    def test_worklists_equal_frontier_rounds(self, rng):
        forms = TestFrontierFixpoints.FORMS
        operands = TestFrontierFixpoints.OPERANDS + (("true", "false"), ("p", "true"), ("false", "q"))
        structures = [rand_kripke3(rng, 40, maybe=0.3 * (i % 2)) for i in range(30)]
        structures += [shaped_kripke(rng, shape, 120, density=0.4, maybe=0.2)
                       for shape in ("random", "chain", "ring", "ladder")]
        for k in structures:
            for definite in (False, True):
                if not (definite or k.is_classical):
                    continue
                new, old = _Evaluator(k, definite=definite), FrontierEvaluator(k, definite=definite)
                for (l, r), form in itertools.product(operands, forms):
                    phi = F.nnf(p(form.format(l=f"({l})", r=f"({r})")))
                    assert new.states(phi) == old.states(phi), (k.name, definite, form, l, r)
                for phi in (F.nnf(rand_ctl(rng, ("p", "q"), 4)) for _ in range(10)):
                    assert new.states(phi) == old.states(phi), (k.name, definite, F.render_formula(phi))


class TestDeepFormulas:
    def test_nested_ax_past_the_recursion_limit(self, rng):
        k = shaped_kripke(rng, "ring", 600, density=0.0)
        hit = F.SetAtom(k.name, ["s320"])
        phi = hit
        for _ in range(320):
            phi = F.PathA(F.Next(phi))
        assert eval_mask(k, phi) == k.mask_of(["s0"])
        assert check_ctl_star(k, phi)
        assert not check_ctl_star(k, F.PathA(F.Next(phi)))
        w = explain_path(k, F.PathA(F.Next(phi)))
        assert w["kind"] == "counterexample" and w["state"] == "s0"
        assert w["stem"] == [] and w["loop"] == list(k.states)


class TestBisimulationClosure:
    def test_verdicts_agree_on_bisimilar_pairs(self, rng, fx):
        pool = [rand_ctl(rng, ("p",), 3) for _ in range(30)] + [P4]
        l, m = fx("L"), fx("M")
        for phi in pool:
            assert check_ctl_star(l, phi) == check_ctl_star(m, phi)
        pool2 = [rand_ctl(rng, ("p", "q"), 3) for _ in range(30)]
        for name in ("O", "P", "U", "V"):
            k = fx(name)
            q = quotient_bisim(k)
            d = duplicate_m(k, 2)
            for phi in pool2:
                v = check_ctl_star(k, phi)
                assert check_ctl_star(q, phi) == v
                assert check_ctl_star(d, phi) == v


class TestSimulationPreservation:
    def test_never_sat_abstract_unsat_concrete(self, rng, fx):
        pairs = [(fx("M"), fx("L"), ("p",)), (fx("Valpha"), fx("V"), ("p", "q"))]
        for abstract, concrete, props in pairs:
            for _ in range(40):
                phi = rand_actl_star(rng, props, 3)
                if check_ctl_star(abstract, phi):
                    assert check_ctl_star(concrete, phi), F.render_formula(phi)


class TestPathChecker:
    def test_against_lasso_enumeration(self, rng, fx):
        structures = [fx("P"), fx("U"), fx("V")] + [rand_kripke(rng, 3) for _ in range(5)]
        pool = [rand_path(rng, ("p", "q"), 3) for _ in range(12)]
        for k in structures:
            for psi in pool:
                mask = eval_mask(k, F.PathE(psi), force_tableau=True)
                for s in k.init:
                    got = bool(mask >> k.index(s) & 1)
                    want = oracle_e_path(k, s, psi, max_len=8)
                    assert got == want, f"{k.name} {F.render_formula(psi)} at {s}"

    def test_witness_lasso_replays(self, rng, fx):
        cases = [
            (fx("P"), p("E(F q)")),
            (fx("U"), p("E(G (p | q))")),
            (fx("O"), p("A(G ((X q) | (X !q)))")),
            (fx("M"), p("A(G (X p))")),
        ]
        for k, phi in cases:
            w = explain_path(k, phi)
            if w is None:
                continue
            path, loop_start = tuple(w["stem"] + w["loop"]), len(w["stem"])
            body = phi.child
            value = eval_on_lasso(k, path, loop_start, body)
            assert value == (w["kind"] == "witness")


    def test_random_witnesses_replay(self, rng):
        found = 0
        for _ in range(40):
            k = rand_kripke(rng, 5)
            for _ in range(4):
                phi = F.PathE(rand_path(rng, ("p", "q"), 3))
                w = explain_path(k, phi)
                assert (w is not None) == any(eval_mask(k, phi) >> k.index(s) & 1 for s in k.init)
                if w is None:
                    continue
                found += 1
                path, loop_start = tuple(w["stem"] + w["loop"]), len(w["stem"])
                assert path[0] == w["state"]
                assert all(b in k.successors(a) for a, b in zip(path, path[1:]))
                assert path[loop_start] in k.successors(path[-1])
                assert eval_on_lasso(k, path, loop_start, phi.child), F.render_formula(phi)
        assert found > 40


class TestSetAtoms:
    def test_local_set_atom(self, fx):
        k = fx("M")
        assert set(eval_states(k, p("EF {b1}@M")).names) == {"b0", "b1"}

    def test_foreign_set_atom_through_bisimulation(self, fx):
        # {a0}@L evaluated on the bisimilar M relates to both M-states
        k = fx("M")
        got = eval_states(k, p("{a0}@L"), env={"L": fx("L")})
        assert set(got.names) == {"b0", "b1"}

    def test_foreign_without_bisimulation_rejected(self, fx):
        with pytest.raises(EvalError, match="bisimulation"):
            eval_states(fx("V"), p("{a0}@L"), env={"L": fx("L")})

    def test_unknown_structure_rejected(self, fx):
        with pytest.raises(EvalError, match="unknown structure"):
            eval_states(fx("M"), p("{a0}@Z"))


class TestAssign:
    """The lane sweep labels every labeling of an atom in chunks: under each,
    a node's mask is a fresh evaluator's mask of the node with the atom
    replaced by a set atom, and what does not contain the atom is labelled once."""

    X = F.Atom("x")

    @staticmethod
    def lane_masks(ev, phi, atom):
        """phi's mask on ev's structure under labelings 0 .. 2^n-1 of atom."""
        lanes = _LaneSweep(ev, phi, atom)
        return [m for base, width in _chunks(ev.k.n) for m in transpose(lanes.lanes(base, width), width)]

    def test_relabelling_matches_a_fresh_evaluator(self, rng):
        x = self.X
        for _ in range(20):
            k = rand_kripke(rng, 8)
            phi = rand_ctl(rng, ["p", "q", "x"], 4)
            path = F.PathE(F.And(F.Globally(F.Future(x)), rand_path(rng, ["p", "x"], 2)))
            ev = _Evaluator(k)  # shared: the later sweeps find earlier labels in its memo
            for f in (phi, path, F.Or(path, phi)):
                got = self.lane_masks(ev, f, x)
                assert len(got) == 1 << k.n
                for mask, m in enumerate(got):
                    here = F.SetAtom(k.name, k.names_of(mask), ref=k)
                    assert m == eval_mask(k, F.substitute(f, x, here)), F.render_formula(f)

    def test_hole_free_tableau_graphs_are_kept(self, fx, monkeypatch):
        k = fx("M")
        fixed, moving = p("E (G F p & F !p)"), p("E (G F x & F !p)")
        built = []

        class Counting(mc.AtomGraph):
            def __init__(self, k, pathform, *args):
                built.append(pathform)
                super().__init__(k, pathform, *args)

        monkeypatch.setattr(mc, "AtomGraph", Counting)
        ev = _Evaluator(k)
        self.lane_masks(ev, F.And(fixed, moving), self.X)
        kept = ev.graph(fixed)
        assert built == [fixed.child]  # the lane product of the moving one is no AtomGraph
        assert ev.graph(fixed) is kept and [f for f, _ in ev._graphs] == [fixed]

    def test_negated_hole_on_a_three_valued_structure(self):
        k = KripkeStructure("T", ("p",), ("s", "t"), ("s",), [("s", "t"), ("t", "s")],
                            {"s": {"p": True}, "t": {"p": M3}})
        ev = _Evaluator(k, definite=True)
        phi = F.nnf(p("AX (!x | p) & EX !x"))
        for mask, got in enumerate(self.lane_masks(ev, phi, self.X)):
            here = F.SetAtom(k.name, k.names_of(mask), ref=k)
            assert got == _Evaluator(k, definite=True).states(F.substitute(phi, self.X, here))

    def test_a_proposition_cannot_be_assigned(self, fx):
        with pytest.raises(EvalError, match="a proposition of"):
            _LaneSweep(_Evaluator(fx("L")), p("EX p"), F.Atom("p"))
        with pytest.raises(EvalError, match="a proposition of"):
            next(mc.sweep(fx("L"), p("EX p"), F.Atom("p")))
