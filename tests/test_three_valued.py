import itertools

import pytest

from vacmc import formula as F
from vacmc.bisim import bisimilar_over, quotient_bisim
from vacmc.errors import EvalError, KripkeError
from vacmc.formula import parse_formula as p
from vacmc.kleene import F3, M3, T3, and3, implies3, info_le, kleene, not3, or3, truth_le
from vacmc.kripke import KripkeStructure, duplicate_m, remove_prop, structurally_equal, x_variants
from vacmc.mc import check_ctl_star
from vacmc.three_valued import (
    eval_compositional3,
    is_refinement,
    labeling_completions,
    lift_kx,
    thorough_kx,
    vacuity_via_thorough,
)
from vacmc.vacuity import VacuityStatus, decide_bisim_vacuity, is_mon_vacuous

from helpers import (
    kleene_compositional3,
    naive_refinement,
    proper_subformulas,
    rand_ctl,
    rand_kripke,
    rand_kripke3,
    rand_path,
    shaped_kripke,
)

ALL3 = (T3, M3, F3)


def _ctl_star(rng, props, depth):
    """A random CTL or CTL* state formula: a CTL formula, a path quantifier
    over a path formula whose leaf h is a CTL formula or an E-path formula,
    or a Boolean combination of these."""
    c = rng.randrange(4) if depth else 0
    if c == 0:
        return rand_ctl(rng, props, depth)
    if c == 1:
        inner = rand_ctl(rng, props, 2) if rng.random() < 0.5 else F.PathE(rand_path(rng, props, 2))
        path = F.substitute(rand_path(rng, props + ("h",), depth), F.Atom("h"), inner)
        return rng.choice([F.PathA, F.PathE])(path)
    if c == 2:
        return F.Not(_ctl_star(rng, props, depth - 1))
    return rng.choice([F.And, F.Or])(_ctl_star(rng, props, depth - 1), _ctl_star(rng, props, depth - 1))


class TestKleene:
    def test_examples(self):
        assert or3(M3, T3) is T3
        assert or3(M3, not3(M3)) is M3
        assert not3(not3(M3)) is M3

    def test_de_morgan_and_involution(self):
        for a, b in itertools.product(ALL3, repeat=2):
            assert not3(and3(a, b)) is or3(not3(a), not3(b))
            assert not3(or3(a, b)) is and3(not3(a), not3(b))
            assert not3(not3(a)) is a

    def test_orders(self):
        assert truth_le(F3, M3) and truth_le(M3, T3) and not truth_le(T3, M3)
        assert info_le(M3, T3) and info_le(M3, F3)
        assert not info_le(T3, F3) and not info_le(F3, T3)

    def test_dispatch(self):
        assert kleene("and", M3, T3) is M3
        assert kleene("implies", M3, F3) is M3
        assert kleene("not", T3) is F3
        with pytest.raises(ValueError):
            kleene("xor", T3, T3)


class TestCompositional:
    def test_excluded_middle_is_maybe(self, fx):
        assert eval_compositional3(lift_kx(fx("L"), "x"), p("x | !x")) is M3

    def test_classical_prop_stays_definite(self, fx):
        assert eval_compositional3(lift_kx(fx("L"), "x"), p("p")) is T3

    def test_classical_coincidence(self, rng, fx):
        names = ("L", "M", "N", "O", "P", "U", "V", "Valpha")
        pool = [rand_ctl(rng, ("p", "q"), 3) for _ in range(20)]
        for name in names:
            k = fx(name)
            for phi in pool:
                if not set(F.atoms(phi)) <= set(k.props):
                    continue
                got = eval_compositional3(k, phi)
                assert got is (T3 if check_ctl_star(k, phi) else F3), (name, F.render_formula(phi))

    def test_ctl_star_values_hold_on_every_completion(self, rng, fx):
        """Seeded 3-valued structures of up to 4 states with maybe labels, and
        CTL and CTL* bodies: a value T means every completion satisfies the
        body, F that none does.  The two CTL* formulas of the Kleene oracle's
        error cases come first, on L and L_x."""
        lx = lift_kx(fx("L"), "x")
        cases = [(fx("L"), p("A((X p) | (X !p))"), T3), (lx, p("A((X p) | (X !p))"), T3), (lx, p("E(F G x)"), M3)]
        for k, phi, want in cases:
            assert eval_compositional3(k, phi) is want, (k.name, F.render_formula(phi))
        for _ in range(60):
            k = rand_kripke3(rng, 4, props=("p", "q"), maybe=0.35, name="K3")
            cases += [(k, _ctl_star(rng, ("p", "q"), 3), None) for _ in range(50)]
        definite = 0
        for k, phi, _ in cases:
            value = eval_compositional3(k, phi)
            if value is not M3:
                verdicts = {check_ctl_star(c, phi) for c in labeling_completions(k)}
                assert verdicts == {value is T3}, (k.name, F.render_formula(phi), value)
                definite += not F.is_ctl(phi)
        assert definite > 500

    def test_equals_kleene_fixpoint_oracle(self, rng):
        structures = []
        for _ in range(40):
            base = rand_kripke(rng, 5)
            labels = {s: {q: M3 if rng.random() < 0.3 else base.label3(s, q) for q in base.props}
                      for s in base.states}
            structures.append(KripkeStructure("K3", base.props, base.states, base.init, base.trans, labels))
        structures += [shaped_kripke(rng, shape, 60, density=0.5, maybe=0.15)
                       for shape in ("random", "chain", "ring", "ladder")]
        pool = [rand_ctl(rng, ("p", "q"), 4) for _ in range(40)]
        seen = set()
        for k in structures:
            for phi in pool:
                got = eval_compositional3(k, phi)
                assert got is kleene_compositional3(k, phi), (k.name, F.render_formula(phi))
                seen.add(got)
        assert seen == {T3, M3, F3}

    def test_deep_formula_on_a_long_ring(self):
        states = [f"s{i}" for i in range(600)]
        labels = {s: {"p": i == 320, "q": M3} for i, s in enumerate(states)}
        trans = [(s, states[(i + 1) % 600]) for i, s in enumerate(states)]
        k = KripkeStructure("R3", ("p", "q"), states, ["s0"], trans, labels)
        phi = F.Atom("p")
        for _ in range(319):
            phi = F.PathA(F.Next(phi))
        assert eval_compositional3(k, phi) is F3
        assert eval_compositional3(k, F.PathA(F.Next(phi))) is T3
        assert eval_compositional3(k, F.Or(phi, F.Atom("q"))) is M3
        for _ in range(200):
            phi = F.PathA(F.Next(phi))
        assert eval_compositional3(k, phi) is F3
        for _ in range(401):  # AX^920 p and AX^1000 p: past the recursion limit in is_ctl too
            phi = F.PathA(F.Next(phi))
        assert eval_compositional3(k, phi) is T3
        for _ in range(80):
            phi = F.PathA(F.Next(phi))
        assert eval_compositional3(k, phi) is F3

    def test_errors_match_kleene_fixpoint_oracle(self, fx):
        kx = lift_kx(fx("L"), "x")
        for phi in (p("AG ({a0}@M -> x)"), p("EF (p & {b0}@M)")):  # the oracle is CTL-only by design
            for k in (fx("L"), kx):
                with pytest.raises(EvalError) as ours:
                    eval_compositional3(k, phi)
                with pytest.raises(EvalError) as oracle:
                    kleene_compositional3(k, phi)
                assert str(ours.value) == str(oracle.value)


class TestRefinement:
    def test_lifted_refined_by_variants(self, fx):
        lx = lift_kx(fx("L"), "x")
        for v in x_variants(fx("L"), "x"):
            assert is_refinement(lx, v) is not None

    def test_lifted_refined_by_m4(self, fx):
        m4 = x_variants(fx("M"), "x")[1]
        assert is_refinement(lift_kx(fx("L"), "x"), m4) is not None

    def test_remove_then_lift_identity(self, fx):
        l1 = x_variants(fx("L"), "x")[1]
        rel = is_refinement(lift_kx(remove_prop(l1, "x"), "x"), l1)
        assert rel is not None and ("a0", "a0") in rel.pairs

    def test_prop_mismatch_rejected(self, fx):
        with pytest.raises(KripkeError):
            is_refinement(lift_kx(fx("L"), "x"), fx("L"))

    def test_preserves_three_valued_verdicts(self, rng):
        pool = [rand_ctl(rng, ("p", "q"), 3) for _ in range(10)]
        checked = 0
        for _ in range(60):
            base = rand_kripke(rng, 3)
            labels = {
                s: {
                    prop: (M3 if rng.random() < 0.4 else base.label3(s, prop))
                    for prop in base.props
                }
                for s in base.states
            }
            k3 = KripkeStructure("K3", base.props, base.states, base.init, base.trans, labels)
            if is_refinement(k3, base) is None:
                continue
            checked += 1
            for phi in pool:
                assert info_le(eval_compositional3(k3, phi), eval_compositional3(base, phi))
        assert checked > 30


    def test_matches_pair_elimination_oracle(self, rng):
        """Seeded pairs of 1-8 states: random ones, and a structure below a
        duplicate of itself or of a random 3-valued structure."""
        verdicts = set()
        for n in range(300):
            kmore = rand_kripke3(rng, 8, maybe=0.3 if n % 2 else 0.0, name="More")
            if n % 3 == 0:
                kless = rand_kripke3(rng, 8, maybe=0.5, name="Less")
            else:
                base = duplicate_m(kmore, 2) if n % 3 == 1 else kmore
                labels = {
                    s: {q: (M3 if rng.random() < 0.4 else base.label3(s, q)) for q in base.props}
                    for s in base.states
                }
                kless = KripkeStructure("Less", base.props, base.states, base.init, base.trans, labels)
            for left, right in ((kless, kmore), (kmore, kless), (kmore, kmore)):
                want = naive_refinement(left, right)
                got = is_refinement(left, right)
                assert (got is None) == (want is None)
                if got is not None:
                    assert got.pairs == want and len(got) == len(want)
                verdicts.add(got is not None)
        assert verdicts == {True, False}


class TestLiftAndCompletions:
    def test_lift_shape(self, fx):
        lx = lift_kx(fx("L"), "x")
        assert lx.label3("a0", "p") is T3 and lx.label3("a0", "x") is M3
        assert structurally_equal(remove_prop(lx, "x"), fx("L"))

    def test_lift_refuses_a_three_valued_structure(self, fx):
        with pytest.raises(KripkeError, match="lift_kx expects a classical structure"):
            lift_kx(lift_kx(fx("L"), "x"), "y")

    def test_lift_refuses_a_present_proposition(self, fx):
        with pytest.raises(KripkeError, match="L: proposition 'p' already present"):
            lift_kx(fx("L"), "p")

    def test_completions_are_variants(self, fx):
        for name in ("L", "M"):
            kx = lift_kx(fx(name), "x")
            comps = labeling_completions(kx)
            variants = x_variants(fx(name), "x")
            assert len(comps) == len(variants) == 2 ** fx(name).n
            for c, v in zip(comps, variants):
                assert structurally_equal(c, v)
            for c in comps:
                assert is_refinement(kx, c) is not None

    def test_classical_structure_single_completion(self, fx):
        comps = labeling_completions(fx("L"))
        assert len(comps) == 1 and structurally_equal(comps[0], fx("L"))

    def test_count_law(self, rng):
        for _ in range(8):
            base = rand_kripke(rng, 3)
            labels = {
                s: {prop: (M3 if rng.random() < 0.5 else base.label3(s, prop)) for prop in base.props}
                for s in base.states
            }
            k3 = KripkeStructure("K3", base.props, base.states, base.init, base.trans, labels)
            maybes = sum(
                1 for s in k3.states for prop in k3.props if k3.label3(s, prop) is M3
            )
            assert len(labeling_completions(k3)) == 2 ** maybes


class TestThorough:
    def test_p2_is_maybe(self, fx):
        assert thorough_kx(fx("L"), "x", p("AG ((AX x) | (AX !x))"))[0] is M3

    def test_p3_is_true(self, fx):
        assert thorough_kx(fx("L"), "x", p("A((X x) | (X !x))"))[0] is T3

    def test_valid_formula_true(self, fx):
        assert thorough_kx(fx("P"), "x", p("AG (x -> x)"))[0] is T3

    def test_requires_occurrence(self, fx):
        with pytest.raises(EvalError, match="occur"):
            thorough_kx(fx("L"), "x", p("AG p"))

    def test_refuses_a_quantified_formula(self, fx):
        with pytest.raises(EvalError, match="^propositional quantifiers are handled by the qctl module$"):
            thorough_kx(fx("L"), "x", p("forall y . AG (y | x)"))

    def test_refuses_a_three_valued_base(self, fx):
        with pytest.raises(KripkeError, match="thorough_kx expects a classical base structure"):
            thorough_kx(lift_kx(fx("L"), "y"), "x", p("AG x"))

    def test_precision_and_labeling_bounds(self, rng, fx):
        for name in ("L", "M", "P", "V"):
            k = fx(name)
            kx = lift_kx(k, "x")
            for _ in range(15):
                phi = rand_ctl(rng, tuple(k.props) + ("x",), 3)
                value, _ = thorough_kx(k, "x", phi) if "x" in F.atoms(phi) else (None, None)
                if value is None:
                    continue
                if F.is_ctl(phi):
                    assert info_le(eval_compositional3(kx, phi), value)
                verdicts = {check_ctl_star(c, phi) for c in labeling_completions(kx)}
                if value is T3:
                    assert verdicts == {True}
                elif value is F3:
                    assert verdicts == {False}
                elif len(verdicts) == 2:
                    assert value is M3


class TestCompletionCharacterization:
    def test_refinements_are_exactly_x_bisimilar(self, rng, fx):
        # refinements of K_x are exactly the structures x-bisimilar to K
        checked = 0
        for ki in range(12):
            k = rand_kripke(rng, 3, name=f"B{ki}")
            kx = lift_kx(k, "x")
            candidates = []
            for base in (k, quotient_bisim(k), duplicate_m(k, 2)):
                candidates.extend(x_variants(base, "x")[:4])
            # negatives: mutate a variant's base labeling
            for v in x_variants(k, "x")[:2]:
                labels = {s: dict(v.labels_of(s)) for s in v.states}
                s0 = v.states[0]
                labels[s0]["p"] = not (labels[s0]["p"] is T3)
                candidates.append(
                    KripkeStructure("mut", v.props, v.states, v.init, v.trans, labels)
                )
            for cand in candidates:
                if sorted(cand.props) != sorted(kx.props):
                    continue
                lhs = is_refinement(kx, cand) is not None
                rhs = bisimilar_over(cand, k, k.props) is not None
                checked += 1
                assert lhs == rhs
        assert checked > 100


class TestVacuityViaThorough:
    def test_p4_non_vacuous(self, fx):
        v = vacuity_via_thorough(p("AG ((AX p) | (AX !p))"), F.Atom("p"), fx("L"))
        assert v.status is VacuityStatus.NON_VACUOUS

    def test_p3_vacuous(self, fx):
        v = vacuity_via_thorough(p("A((X p) | (X !p))"), F.Atom("p"), fx("L"))
        assert v.status is VacuityStatus.VACUOUS

    def test_a_subformula_that_does_not_occur_is_vacuous(self, fx):
        # EX p does not occur in AG p, so replacing it changes no verdict
        v = vacuity_via_thorough(p("AG p"), p("EX p"), fx("V"))
        assert v.to_dict() == {"status": "vacuous", "route": "thorough", "witness": {"thorough": "definite"}}

    def test_pure_polarity_matches_monotone(self, fx):
        phi, psi = p("AG (p -> AF q)"), p("AF q")
        for name in ("L", "M", "O", "P", "U", "V", "Valpha"):
            k = fx(name)
            got = vacuity_via_thorough(phi, psi, k)
            assert (got.status is VacuityStatus.VACUOUS) == is_mon_vacuous(phi, psi, k), name

    def test_agrees_with_dispatcher(self, rng, fx):
        # the thorough route and the dispatcher agree whenever both decide
        for name in ("L", "M", "P", "V"):
            k = fx(name)
            for _ in range(15):
                phi = rand_ctl(rng, k.props, 3)
                psi = rng.choice(sorted(proper_subformulas(phi), key=F.render_formula))
                a = vacuity_via_thorough(phi, psi, k)
                b = decide_bisim_vacuity(phi, psi, k)
                if VacuityStatus.UNKNOWN in (a.status, b.status):
                    continue
                assert a.status == b.status, (name, F.render_formula(phi), F.render_formula(psi))

    def test_auto_is_vacuous_where_thorough_is_for_a_state_subformula(self, rng):
        """On random models of up to 6 states, with CTL and CTL* bodies in which
        a state formula psi occurs in both polarities: where thorough says
        vacuous, so does the dispatcher, by the compositional bound when no
        earlier route decides; and where both decide, they agree."""
        seen, compositional, holed = 0, 0, ("p", "q", "h")
        while seen < 150:
            k, psi = rand_kripke(rng, 6), rand_ctl(rng, ("p", "q"), 2)
            left = rng.choice([rand_ctl(rng, holed, 3), F.PathE(rand_path(rng, holed, 3))])
            phi = F.substitute(F.And(left, F.Not(rand_ctl(rng, holed, 2))), F.Atom("h"), psi)
            if F.occurrence_polarity(phi, psi) is not F.Polarity.MIXED:
                continue
            seen += 1
            a, b = decide_bisim_vacuity(phi, psi, k), vacuity_via_thorough(phi, psi, k)
            case = (F.render_formula(phi), F.render_formula(psi), a.to_dict(), b.to_dict())
            if b.status is VacuityStatus.VACUOUS:
                assert a.status is VacuityStatus.VACUOUS, case
            if VacuityStatus.UNKNOWN not in (a.status, b.status):
                assert a.status == b.status, case
            compositional += a.route == "compositional"
        assert compositional > 0
