import pytest

from vacmc import formula as F
from vacmc.errors import EvalError, KripkeError
from vacmc.formula import parse_formula as p
from vacmc.kripke import KripkeStructure, UnrollingMap, duplicate_m, x_variants
from vacmc.bisim import quotient_bisim
from vacmc.mc import check_ctl_star
from vacmc.qctl import (
    BRUTE_FORCE_Y,
    CHAIN_IMPLICATION,
    DETERMINISTIC_COLLAPSE,
    DUALITY,
    K_PARALLEL_X,
    PATH_FORMULA_EQUIVALENCE,
    eval_bisimulation,
    eval_structural,
    eval_tree,
    pathify,
    refute_tree_with_witness,
)

from helpers import rand_ctl, rand_kripke, rand_path

QP1 = p("forall x . AG (x -> AX x)")
QP2 = p("forall x . AG ((AX x) | (AX !x))")
QP3 = p("forall x . A ((X x) | (X !x))")


class TestStructural:
    def test_table_rows(self, fx):
        l, m = fx("L"), fx("M")
        assert eval_structural(l, QP1) == (True, None)
        value, witness = eval_structural(m, QP1)
        assert not value and witness == ("b0",)
        assert eval_structural(l, QP2)[0]
        assert not eval_structural(m, QP2)[0]
        assert eval_structural(l, QP3)[0] and eval_structural(m, QP3)[0]

    def test_exists_witness(self, fx):
        value, witness = eval_structural(fx("M"), p("exists x . AG (x & AX x)"))
        assert value and witness == ("b0", "b1")

    def test_variable_collision_rejected(self, fx):
        with pytest.raises(EvalError, match="already a proposition"):
            eval_structural(fx("L"), p("forall p . AG p"))


class TestBisimulation:
    def test_table_rows(self, fx):
        l, m = fx("L"), fx("M")
        for k in (l, m):
            for q, expected in ((QP1, False), (QP2, False), (QP3, True)):
                r = eval_bisimulation(k, q)
                assert r.route == K_PARALLEL_X
                assert r.value is expected, (k.name, F.render_formula(q))

    def test_exists_by_duality(self, fx):
        r = eval_bisimulation(fx("L"), p("exists x . AG x"))
        assert r.value is True and r.route == DUALITY

    def test_chain_implication_fallback(self, fx):
        # mixed-polarity x blocks KParallelX; the structural counterexample decides
        q = p("forall x . (EX x) & (EX !x)")
        r = eval_bisimulation(fx("L"), q)
        assert r.value is False and r.route == CHAIN_IMPLICATION


class TestTree:
    def test_table_rows_and_routes(self, fx):
        l, m = fx("L"), fx("M")
        cases = [
            (l, QP1, False, DETERMINISTIC_COLLAPSE),
            (m, QP1, False, CHAIN_IMPLICATION),
            (l, QP2, True, DETERMINISTIC_COLLAPSE),
            (m, QP2, False, CHAIN_IMPLICATION),
            (l, QP3, True, PATH_FORMULA_EQUIVALENCE),
            (m, QP3, True, PATH_FORMULA_EQUIVALENCE),
        ]
        for k, q, expected, route in cases:
            r = eval_tree(k, q)
            assert (r.value, r.route) == (expected, route), (k.name, F.render_formula(q))

    def test_pathify(self):
        assert pathify(p("AG (x -> AX x)")) == p("G (x -> X x)")
        assert pathify(p("EF EG p")) == p("F G p")


class TestRefuteTreeWithWitness:
    def _witness(self, fx):
        src = KripkeStructure(
            "T1",
            ("p", "x"),
            ("t0", "t1"),
            ("t0",),
            [("t0", "t1"), ("t1", "t0")],
            {"t0": {"p": True, "x": True}, "t1": {"p": True, "x": False}},
        )
        return UnrollingMap(src, fx("L"), {"t0": "a0", "t1": "a0"})

    def test_refutes_p1(self, fx):
        assert refute_tree_with_witness(fx("L"), QP1, self._witness(fx))

    def test_does_not_refute_tautology(self, fx):
        assert not refute_tree_with_witness(fx("L"), QP3, self._witness(fx))

    def test_an_existential_formula_is_refused(self, fx):
        with pytest.raises(EvalError, match="universally quantified"):
            refute_tree_with_witness(fx("L"), p("exists x . AG (x -> AX x)"), self._witness(fx))

    def test_a_map_into_another_structure_is_refused(self, fx):
        with pytest.raises(KripkeError, match="unrolling map targets a different structure"):
            refute_tree_with_witness(fx("M"), QP1, self._witness(fx))

    def test_broken_map_rejected(self, fx):
        m4 = x_variants(fx("M"), "x")[1]
        bad = UnrollingMap(m4, fx("L"), {"b0": "a0", "b1": "a0"})
        with pytest.raises(KripkeError, match="invalid"):
            refute_tree_with_witness(fx("L"), QP1, bad)


class TestImplicationChain:
    def test_strictness_witnesses(self, fx):
        l = fx("L")
        # (L, P2): tree true, bisimulation false
        assert eval_tree(l, QP2).value is True
        assert eval_bisimulation(l, QP2).value is False
        # (L, P1): structure true, tree false
        assert eval_structural(l, QP1)[0] is True
        assert eval_tree(l, QP1).value is False

    def test_no_violation_on_random_instances(self, rng, fx):
        structures = [fx("L"), fx("M"), fx("P"), fx("U")] + [rand_kripke(rng, 4) for _ in range(10)]
        bodies = [rand_ctl(rng, ("p", "x"), 3) for _ in range(10)]
        bodies += [QP1.child, QP2.child, QP3.child]
        for k in structures:
            if "x" in k.props:
                continue
            for body in bodies:
                if not set(F.atoms(body)) <= set(k.props) | {"x"}:
                    continue
                q = F.ForallProp("x", body)
                s_value, _ = eval_structural(k, q)
                t = eval_tree(k, q)
                b = eval_bisimulation(k, q)
                if b.value is True and t.decided:
                    assert t.value is True
                if t.value is True:
                    assert s_value is True
                if s_value is False and t.decided:
                    assert t.value is False
                if t.value is False and b.decided:
                    assert b.value is False


class TestRouteSoundness:
    def test_path_formula_equivalence_matches_bisim(self, rng, fx):
        for k in (fx("L"), fx("M"), fx("P")):
            for _ in range(12):
                body = F.PathA(rand_path(rng, tuple(k.props) + ("x",), 2))
                q = F.ForallProp("x", body)
                t = eval_tree(k, q)
                b = eval_bisimulation(k, q)
                if t.route == PATH_FORMULA_EQUIVALENCE and b.decided:
                    assert t.value == b.value

    def test_deterministic_collapse_implies_structural(self, rng, fx):
        for k in (fx("L"), fx("P")):
            for _ in range(12):
                body = rand_ctl(rng, tuple(k.props) + ("x",), 3)
                q = F.ForallProp("x", body)
                t = eval_tree(k, q)
                if t.route == DETERMINISTIC_COLLAPSE and t.value is True:
                    assert eval_structural(k, q)[0] is True, F.render_formula(body)

    def test_k_parallel_x_spot_check(self, rng, fx):
        # KParallelX true => every regular x-variant satisfies the body
        for k in (fx("L"), fx("M"), fx("P")):
            for _ in range(15):
                body = rand_ctl(rng, tuple(k.props) + ("x",), 3)
                if not F.analyze(body, F.Atom("x")).universal_in:
                    continue
                r = eval_bisimulation(k, F.ForallProp("x", body))
                assert r.route == K_PARALLEL_X
                if r.value is not True:
                    continue
                for base in (k, quotient_bisim(k), duplicate_m(k, 2)):
                    for v in x_variants(base, "x"):
                        assert check_ctl_star(v, body), (k.name, F.render_formula(body))
