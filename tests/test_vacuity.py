import itertools

import pytest

from vacmc import formula as F
from vacmc import vacuity as V
from vacmc.errors import EnumerationBoundError, EvalError, NotApplicableError, PreconditionError
from vacmc.formula import Polarity, parse_formula as p
from vacmc.kripke import KripkeStructure, chi, compose_sync, duplicate_m, labelled
from vacmc.bisim import quotient_bisim
from vacmc.mc import check_ctl_star, eval_mask, eval_states
from vacmc.vacuity import (
    VacuityStatus,
    constant_vacuous,
    decide_bisim_vacuity,
    enumerate_structures,
    is_fal_vacuous,
    is_mon_vacuous,
    is_sat_vacuous,
    prop_simplify,
    structure_vacuous,
    syntactic_monotone,
)

from helpers import proper_subformulas, rand_ctl, rand_kripke, rand_path

P4 = p("AG ((AX p) | (AX !p))")
P6 = p("(EX p) | (AX !p)")
P8 = p("AG (p -> AX q)")
AXQ = p("AX q")
PA = F.Atom("p")


class TestConstantVacuous:
    def test_p4_on_l(self, fx):
        assert constant_vacuous(P4, PA, fx("L"))

    def test_ag_p_not_constant_vacuous(self, fx):
        assert not constant_vacuous(p("AG p"), PA, fx("L"))

    def test_tautology(self, fx):
        assert constant_vacuous(p("AG (p | !p)"), PA, fx("M"))


class TestStructureVacuous:
    def test_p4_on_l(self, fx):
        assert structure_vacuous(P4, PA, fx("L")) == (True, None)

    def test_p4_on_m_witness_replays(self, fx):
        m = fx("M")
        flag, (y_sat, y_fal) = structure_vacuous(P4, PA, m)
        assert not flag
        sat = F.substitute(P4, PA, F.SetAtom("M", y_sat, ref=m))
        fal = F.substitute(P4, PA, F.SetAtom("M", y_fal, ref=m))
        assert check_ctl_star(m, sat) and not check_ctl_star(m, fal)

    def test_consequent_substitution(self, fx):
        flag, witness = structure_vacuous(p("AG (p -> AX q)"), AXQ, fx("P"))
        assert not flag and witness is not None

    def test_refused_past_its_bound(self, fx):
        m = fx("M")
        with pytest.raises(EnumerationBoundError, match=r"2\^2 substitutions exceed the bound 2\^1"):
            structure_vacuous(P4, PA, m, bound=1)
        assert structure_vacuous(P4, PA, m, bound=2)[0] is False


class TestSyntacticMonotone:
    def test_examples(self):
        assert syntactic_monotone(p("AG (p | q | r)"), F.Atom("q"))
        assert syntactic_monotone(p("EF (p & q & EG p)"), PA)
        assert not syntactic_monotone(P4, PA)


class TestIsMonVacuous:
    def test_p8_on_v_and_valpha(self, fx):
        assert is_mon_vacuous(P8, AXQ, fx("V"))
        assert not is_mon_vacuous(P8, AXQ, fx("Valpha"))

    def test_antecedent_failure(self, fx):
        assert is_mon_vacuous(p("AG (!p -> AF p)"), p("AF p"), fx("L"))

    def test_warns_when_ungated(self, fx):
        with pytest.warns(UserWarning, match="monotone"):
            is_mon_vacuous(P4, PA, fx("L"))


class TestIsSatVacuous:
    def test_p4_not_vacuous_on_l(self, fx):
        assert not is_sat_vacuous(P4, PA, fx("L"))

    def test_p3_vacuous_on_l(self, fx):
        assert is_sat_vacuous(p("A((X p) | (X !p))"), PA, fx("L"))

    def test_p8_agrees_with_monotone_on_v(self, fx):
        assert is_sat_vacuous(P8, AXQ, fx("V")) == is_mon_vacuous(P8, AXQ, fx("V"))

    def test_unsatisfied_precondition(self, fx):
        with pytest.raises(PreconditionError):
            is_sat_vacuous(p("AG q"), F.Atom("q"), fx("P"))

    def test_fragment_gate(self, fx):
        with pytest.raises(NotApplicableError):
            is_sat_vacuous(P6, PA, fx("L"))


class TestIsFalVacuous:
    def test_vacuously_false_on_v(self, fx):
        assert is_fal_vacuous(p("EF (p & EX !q)"), p("EX !q"), fx("V"))

    def test_ef_p_not_fal_vacuous(self, fx):
        assert not is_fal_vacuous(p("EF p"), PA, fx("V"))

    def test_satisfied_precondition(self, fx):
        with pytest.raises(PreconditionError):
            is_fal_vacuous(p("EF q"), F.Atom("q"), fx("P"))

    def test_several_initial_states(self, fx):
        # Q has two initial states; the precondition is asked before the
        # fragment test, so a satisfied phi with q under A fails on the former
        q = fx("Q")
        with pytest.raises(PreconditionError, match="^is_fal_vacuous requires a formula falsified by K$"):
            is_fal_vacuous(p("AX q & EX q"), F.Atom("q"), q)
        with pytest.raises(NotApplicableError, match=r"^phi is not ECTL\* and psi is not an existential subformula$"):
            is_fal_vacuous(p("AX p | EX !q"), PA, q)
        assert not is_fal_vacuous(p("EX p"), PA, q)
        assert is_fal_vacuous(p("EX (p & q) & EF x"), F.Atom("x"), q)


class TestDecideBisimVacuity:
    def test_p4_non_vacuous_route_satx(self, fx):
        v = decide_bisim_vacuity(P4, PA, fx("L"))
        assert v.status is VacuityStatus.NON_VACUOUS and v.route == "satx"

    def test_p6_never_non_vacuous(self, fx):
        v = decide_bisim_vacuity(P6, PA, fx("L"))
        assert v.status is not VacuityStatus.NON_VACUOUS
        v2 = decide_bisim_vacuity(P6, PA, fx("L"), bounded_validity=3)
        assert v2.status is VacuityStatus.VACUOUS and v2.route == "bounded-validity"

    def test_monotone_route(self, fx):
        v = decide_bisim_vacuity(p("AG (p -> AF q)"), p("AF q"), fx("V"))
        assert v.status is VacuityStatus.VACUOUS and v.route == "monotone"

    def test_absent_route(self, fx):
        v = decide_bisim_vacuity(P4, F.Atom("q"), fx("L"))
        assert v.status is VacuityStatus.VACUOUS and v.route == "absent"

    def test_monotone_preferred_over_falx(self, fx):
        # single occurrence: the cheaper monotone route fires first
        v = decide_bisim_vacuity(p("EF (p & EX !q)"), p("EX !q"), fx("V"))
        assert v.status is VacuityStatus.VACUOUS and v.route == "monotone"

    def test_falx_route(self, fx):
        # mixed polarity in q, ECTL*, falsified by V: the dual K||X route
        v = decide_bisim_vacuity(p("EF (p & q & EG !q)"), F.Atom("q"), fx("V"))
        assert v.status is VacuityStatus.VACUOUS and v.route == "falx"

    def test_a_set_atom_of_k_is_its_own_in_the_compositional_bound(self, fx):
        # K_x is built on K's states, so K's set atom is read there as the
        # states it names; only a foreign atom leaves the bound out
        from vacmc.three_valued import thorough_kx, vacuity_via_thorough

        m = fx("M")
        for atom, bound in ((F.SetAtom("M", ("b1",)), "maybe"), (F.SetAtom("L", ("a0",), ref=fx("L")), None)):
            phi = F.Or(p("AG ((AX p) | (EX !p))"), atom)
            assert thorough_kx(m, "x", F.substitute(phi, PA, F.Atom("x"))) == (
                None, {"compositional": bound, "labeling": "true"})
            v = decide_bisim_vacuity(phi, PA, m)
            assert (v.status, v.route) == (VacuityStatus.UNKNOWN, "unknown")
            assert v.bounds == {"compositional": bound, "labeling_agreement": True}
            v = vacuity_via_thorough(phi, PA, m)
            assert (v.status, v.route) == (VacuityStatus.UNKNOWN, "thorough")
            assert v.bounds == {"compositional": bound, "labeling": "true"}

    def test_necessity_chain(self, rng, fx):
        # any theorem-backed Vacuous implies structure and constant vacuity
        checked = 0
        for name in ("L", "M", "O", "P", "U", "V"):
            k = fx(name)
            for _ in range(25):
                phi = rand_ctl(rng, k.props, 3)
                psi = rng.choice(sorted(proper_subformulas(phi), key=F.render_formula))
                v = decide_bisim_vacuity(phi, psi, k)
                if v.status is VacuityStatus.VACUOUS and v.route != "bounded-validity":
                    assert structure_vacuous(phi, psi, k)[0], (name, F.render_formula(phi))
                    assert constant_vacuous(phi, psi, k)
                    checked += 1
        assert checked > 20

    def test_bisimulation_invariance(self, rng, fx):
        for name in ("L", "M", "P", "V"):
            k = fx(name)
            fresh = KripkeStructure("F1", ("r",), ("u",), ("u",), [("u", "u")], {"u": {"r": True}})
            siblings = [quotient_bisim(k), duplicate_m(k, 2), compose_sync(k, fresh)]
            for _ in range(10):
                phi = rand_ctl(rng, k.props, 3)
                psi = rng.choice(sorted(proper_subformulas(phi), key=F.render_formula))
                verdicts = [decide_bisim_vacuity(phi, psi, kk).status for kk in [k] + siblings]
                decided = [v for v in verdicts if v is not VacuityStatus.UNKNOWN]
                assert len(set(decided)) <= 1, (name, F.render_formula(phi), verdicts)

    def test_composition_preservation(self, rng, fx):
        fresh = KripkeStructure(
            "F2", ("r",), ("u0", "u1"), ("u0",),
            [("u0", "u1"), ("u1", "u0"), ("u1", "u1")],
            {"u0": {"r": True}, "u1": {"r": False}},
        )
        for name in ("L", "M", "V", "P"):
            k = fx(name)
            for _ in range(12):
                phi = rand_ctl(rng, k.props, 3)
                psi = rng.choice(sorted(proper_subformulas(phi), key=F.render_formula))
                v = decide_bisim_vacuity(phi, psi, k)
                if v.status is VacuityStatus.VACUOUS and v.route in ("monotone", "satx", "falx"):
                    vc = decide_bisim_vacuity(phi, psi, compose_sync(k, fresh))
                    assert vc.status is VacuityStatus.VACUOUS, (name, F.render_formula(phi))

    def test_satx_agreement_with_enumeration(self, rng, fx):
        # necessary-direction spot check on small structures
        from vacmc.kripke import x_variants

        for name in ("L", "M", "P"):
            k = fx(name)
            for _ in range(10):
                phi = rand_ctl(rng, k.props, 3)
                psi = rng.choice(sorted(proper_subformulas(phi), key=F.render_formula))
                an = F.analyze(phi, psi)
                if not (an.is_actl_star or an.universal_in) or not check_ctl_star(k, phi):
                    continue
                x = F.fresh_prop(F.atoms(phi) | set(k.props))
                phix = F.substitute(phi, psi, F.Atom(x))
                variants = []
                for base in (k, quotient_bisim(k), duplicate_m(k, 2)):
                    variants.extend(x_variants(base, x))
                all_sat = all(check_ctl_star(v, phix) for v in variants)
                got = is_sat_vacuous(phi, psi, k)
                if not all_sat:
                    assert not got
                if got:
                    assert all_sat


def _reshuffled(rng, k):
    """k with its states renamed, and its states, transitions and initial
    states listed in a random order."""
    order = list(range(k.n))
    rng.shuffle(order)
    names = {s: f"t{j}" for s, j in zip(k.states, order)}
    states, init = list(names.values()), [names[s] for s in k.init]
    trans = [(names[s], names[t]) for s, t in k.trans]
    for items in (states, trans, init):
        rng.shuffle(items)
    return KripkeStructure("T", k.props, states, init, trans, {names[s]: k.labels_of(s) for s in k.states})


def _mixed_query(rng):
    """(phi, psi) without set atoms, psi of mixed polarity in phi: a state
    psi under CTL and CTL* bodies, or a path psi under path quantifiers."""
    holed = ("p", "q", "h")
    while True:
        if rng.random() < 0.5:
            psi = rand_ctl(rng, ("p", "q"), 2)
            left = rng.choice([rand_ctl(rng, holed, 3), F.PathE(rand_path(rng, holed, 3))])
            right = rand_ctl(rng, holed, 2)
        else:
            psi = rand_path(rng, ("p", "q"), 2)
            left, right = (rng.choice([F.PathE, F.PathA])(rand_path(rng, holed, d)) for d in (3, 2))
        phi = F.substitute(F.And(left, F.Not(right)), F.Atom("h"), psi)
        if F.occurrence_polarity(phi, psi) is F.Polarity.MIXED:
            return phi, psi


class TestLaws:
    """Seeded laws over random structures of up to 4 states and mixed queries."""

    def test_bisimilar_structures_get_the_same_decided_verdicts(self, rng):
        """K, its quotient, K^(2) and a renamed, reshuffled copy of K are
        bisimilar: check_ctl_star gives them one verdict, and the decided
        statuses of the dispatcher and of the thorough route agree."""
        from vacmc.three_valued import vacuity_via_thorough

        decided = 0
        for _ in range(120):
            k = rand_kripke(rng, 4)
            phi, psi = _mixed_query(rng)
            ks = [k, quotient_bisim(k), duplicate_m(k, 2), _reshuffled(rng, k)]
            case = (F.render_formula(phi), F.render_formula(psi))
            assert len({check_ctl_star(kk, phi) for kk in ks}) == 1, case
            for fn in (decide_bisim_vacuity, vacuity_via_thorough):
                verdicts = [fn(phi, psi, kk) for kk in ks]
                statuses = {v.status for v in verdicts} - {VacuityStatus.UNKNOWN}
                assert len(statuses) <= 1, (fn.__name__, case, [v.to_dict() for v in verdicts])
                decided += bool(statuses)
        assert decided > 120

    def test_a_decided_vacuous_verdict_implies_structure_vacuity(self, rng):
        """Every labelling of x on K is an x-variant, so a structure-non-vacuous
        K never gets a decided vacuous verdict, from auto or from thorough."""
        from vacmc.three_valued import vacuity_via_thorough

        vacuous = 0
        for _ in range(200):
            k = rand_kripke(rng, 4)
            phi, psi = _mixed_query(rng)
            verdicts = [fn(phi, psi, k) for fn in (decide_bisim_vacuity, vacuity_via_thorough)]
            if any(v.status is VacuityStatus.VACUOUS for v in verdicts):
                vacuous += 1
                assert structure_vacuous(phi, psi, k)[0], (F.render_formula(phi), F.render_formula(psi))
        assert vacuous > 20


def _status(fn, *args):
    """The status of a verdict, the value of thorough_kx, the value, route and
    witness of a qctl result, or the raised error."""
    try:
        got = fn(*args)
    except Exception as e:
        return type(e).__name__, str(e)
    return got.status if hasattr(got, "status") else got[0] if isinstance(got, tuple) else got


class TestSetAtomsOfAMultiInitialModel:
    """A set atom of K is read as the states it names on K and on every
    structure built on K's states (its x-labelings, K_x), and through a
    bisimulation on K||X, K/~ and K^(2), by every route.  So a body
    with a set atom of K, with or without its ref, gets the same answer from
    every API as the same body with the atom replaced by a fresh proposition
    r, true on exactly the atom's states: the states of a CTL formula, a
    bisimulation-closed set.  Models have one or several initial states."""

    def test_statuses_match_a_fresh_proposition(self, rng):
        from vacmc.qctl import eval_bisimulation, eval_tree
        from vacmc.three_valued import thorough_kx, vacuity_via_thorough

        checked = {True: 0, False: 0}  # per "several initial states"
        while min(checked.values()) < 40:
            k = rand_kripke(rng, 5)
            region = eval_mask(k, rand_ctl(rng, ["p", "q"], 2))
            body = rand_ctl(rng, ["p", "q", "r"], 3)
            several = len(k.init) > 1
            if checked[several] >= 40 or not {"p", "r"} <= F.atoms(body):
                continue
            checked[several] += 1
            kr = labelled(k, "r", region)
            atom = F.SetAtom(k.name, k.names_of(region), ref=k if rng.random() < 0.5 else None)
            phi = F.substitute(body, F.Atom("r"), atom)
            text = F.render_formula(phi)
            phix, bodyx = (F.substitute(f, PA, F.Atom("x")) for f in (phi, body))
            assert _status(thorough_kx, k, "x", phix) == _status(thorough_kx, kr, "x", bodyx), text
            for fn in (is_fal_vacuous, decide_bisim_vacuity, vacuity_via_thorough):
                assert _status(fn, phi, PA, k) == _status(fn, body, PA, kr), (fn.__name__, text)
            for fn in (eval_bisimulation, eval_tree):
                got, want = (_status(fn, kk, F.ForallProp("x", f)) for kk, f in ((k, phix), (kr, bodyx)))
                assert got == want, (fn.__name__, text)


class TestMonotonicityHardnessGadget:
    def test_valid_disjunct_makes_vacuous(self, rng):
        gadget = p("(p -> AX p) | AG (q | !q)")
        for _ in range(10):
            k = rand_kripke(rng, 4)
            assert constant_vacuous(gadget, PA, k)
            assert structure_vacuous(gadget, PA, k)[0]

    def test_invalid_disjunct_leaves_witness(self):
        gadget = p("(p -> AX p) | AG q")
        k = KripkeStructure(
            "W", ("p", "q"), ("s0", "s1"), ("s0",),
            [("s0", "s0"), ("s0", "s1"), ("s1", "s1")],
            {"s0": {"p": False, "q": False}, "s1": {"p": False, "q": False}},
        )
        flag, witness = structure_vacuous(gadget, PA, k)
        assert not flag and witness is not None


class TestPropSimplify:
    def test_af_eg_p_on_o(self, fx):
        o = fx("O")
        out = prop_simplify(p("AF EG p"), o)
        assert out == F.PathA(F.Future(F.SetAtom("O", ("o0", "o1"), ref=o)))
        # extensionally AF p on O
        assert check_ctl_star(o, out) == check_ctl_star(o, p("AF p"))

    def test_no_existential_subformula(self, fx):
        assert prop_simplify(p("AG p"), fx("L")) == p("AG p")

    def test_whole_formula_replaced(self, fx):
        l = fx("L")
        assert prop_simplify(p("EF p"), l) == F.SetAtom("L", ("a0",), ref=l)

    def test_selector_rejects_path_formula(self, fx):
        with pytest.raises(EvalError, match="path formula"):
            prop_simplify(p("A(F p)"), fx("L"), selector=[p("F p")])

    def test_explicit_selector(self, fx):
        k = fx("P")
        out = prop_simplify(p("AG (p -> AF q)"), k, selector=[p("AF q")])
        assert out == F.PathA(F.Globally(F.Implies(PA, F.SetAtom("P", ("c0", "c1"), ref=k))))
        assert F.render_formula(out) == "AG (p -> {c0,c1}@P)"

    def test_simplification_preserved_on_bisimilar(self, fx):
        # Prop(phi, L) evaluates identically on the bisimilar M
        l, m = fx("L"), fx("M")
        phi = p("AF EF p")
        simplified = prop_simplify(phi, l)
        assert check_ctl_star(m, phi) == check_ctl_star(m, simplified, env={"L": l})


class TestEnumerateStructures:
    def test_counts_single_prop(self):
        assert sum(1 for _ in enumerate_structures(("x",), 1)) == 2
        assert sum(1 for _ in enumerate_structures(("x",), 2)) == 2 + 36


def _probes_by_init(props, max_states):
    """enumerate_structures as each probe was once built: one named structure
    through KripkeStructure.__init__ per labeling and transition shape."""
    for n in range(1, max_states + 1):
        states = tuple(f"s{i}" for i in range(n))
        for labeling in itertools.product(range(1 << len(props)), repeat=n):
            labels = {states[i]: {p: bool(labeling[i] >> j & 1) for j, p in enumerate(props)} for i in range(n)}
            for succs in itertools.product(range(1, 1 << n), repeat=n):
                trans = [(states[i], states[j]) for i in range(n) for j in range(n) if succs[i] >> j & 1]
                yield KripkeStructure("probe", props, states, (states[0],), trans, labels)


def _per_probe_verdicts(body, max_states):
    """The bounded-validity probe checked one structure at a time, as far as
    the first disagreement."""
    verdicts = set()
    for probe in enumerate_structures(sorted(F.atoms(body)), max_states):
        verdicts.add(check_ctl_star(probe, body))
        if len(verdicts) > 1:
            break
    return verdicts


def _rand_body(rng, props):
    """A CTL or genuine CTL* body over exactly props."""
    while True:
        if rng.random() < 0.5:
            body = rand_ctl(rng, props, 3)
        else:
            body = rng.choice([F.PathA, F.PathE])(rand_path(rng, props, 3))
        if F.atoms(body) == set(props):
            return body


class TestBoundedValidityProbe:
    @pytest.mark.parametrize("props", [("x",), ("p", "x")])
    def test_same_structures_as_built_one_by_one(self, props):
        built = list(enumerate_structures(props, 2))
        assert len(built) == sum(1 for _ in _probes_by_init(props, 2))
        for got, want in zip(built, _probes_by_init(props, 2)):
            assert got == want and got.trans == want.trans and got.init == want.init

    @pytest.mark.parametrize("props", [("x",), ("p", "x")])
    def test_union_bits_are_the_members_verdicts(self, rng, props):
        """Every probe of up to two states and a seeded sample of 150 of three,
        labelled in unions of up to 16 states: each member's initial bit is
        its own check's verdict."""
        probes = list(enumerate_structures(props, 3))
        small = [m for m in probes if m.n < 3]
        sample = small + rng.sample(probes[len(small):], 150)
        for _ in range(8):
            body = _rand_body(rng, props)
            for batch in V._batches(sample, 4, 16):
                union, offsets = V._union(batch)
                assert union.n == sum(m.n for m in batch) <= 16
                mask = eval_mask(union, body)
                got = [bool(mask >> o & 1) for o in offsets]
                assert got == [check_ctl_star(m, body) for m in batch], F.render_formula(body)

    @pytest.mark.parametrize("props", [("x",), ("p", "x")])
    def test_verdict_sets_match_per_probe_checks(self, rng, props):
        for trial in range(8):
            body = _rand_body(rng, props)
            for n in (1, 2, 3):
                assert V._probe_verdicts(body, n) == _per_probe_verdicts(body, n), (F.render_formula(body), n)
            if trial < 2:  # a tautology and a contradiction label every probe, in every union
                for whole, verdict in ((F.Or(body, F.Not(body)), True), (F.And(body, F.Not(body)), False)):
                    assert V._probe_verdicts(whole, 4 - len(props)) == {verdict}

    @pytest.mark.parametrize("count", [1, 2])
    def test_set_atoms_are_probed_as_fresh_propositions(self, rng, fx, count):
        """A body with set atoms gets the verdicts that it gets probe by probe
        with a fresh proposition in each atom's place; atoms that differ only
        in their home are two propositions (the first trial's pair)."""
        atoms = [F.SetAtom("L", ("a0",)), F.SetAtom("L", ("a0",), ref=fx("L")),
                 F.SetAtom("M", ("b0", "b1"), ref=fx("M"))]
        fresh = ("r", "s")[:count]
        for trial in range(8):
            body = _rand_body(rng, ("x",) + fresh)
            with_atoms = body
            for name, atom in zip(fresh, rng.sample(atoms, count) if trial else atoms):
                with_atoms = F.substitute(with_atoms, F.Atom(name), atom)
            for n in (1, 2):
                assert V._probe_verdicts(with_atoms, n) == _per_probe_verdicts(body, n), (F.render_formula(body), n)
        assert V._probe_verdicts(F.Or(with_atoms, F.Not(with_atoms)), 2) == {True}
        # valid only if the two atoms were one proposition
        assert V._probe_verdicts(F.Implies(atoms[0], atoms[1]), 1) == {True, False}

    def test_a_set_atom_in_the_body_is_probed_as_a_fresh_proposition(self, fx):
        m = fx("M")
        phi = p("AG ((AX p) | (EX !p)) | {b1}@M")
        v = decide_bisim_vacuity(phi, PA, m, bounded_validity=2)
        assert (v.status, v.route, v.evidence) == (VacuityStatus.VACUOUS, "bounded-validity", {"side": "valid"})

    def test_an_over_cap_closure_is_refused_as_before(self):
        body = p("E(" + "X " * 15 + "x)")
        with pytest.raises(EvalError, match=r"^path formula closure too large \(15 temporal operators\)$"):
            V._probe_verdicts(body, 1)

    def test_an_oversized_enumeration_is_refused_as_before(self):
        with pytest.raises(EnumerationBoundError, match=r"^bounded-validity probe would enumerate 1407248 structures$"):
            V._probe_verdicts(p("(p & q) | (r & x)"), 3)
        with pytest.raises(EnumerationBoundError, match="would enumerate 1407248 structures"):
            next(enumerate_structures(("p", "q", "r", "x"), 3))

    def test_one_labelling_per_union_and_no_check_per_probe(self, fx, monkeypatch):
        pulled, labelled, checked = [], [], []
        enumerate_original, eval_original, check_original = V.enumerate_structures, V.eval_mask, V.check_ctl_star

        def enumerate_counted(*args):
            for probe in enumerate_original(*args):
                pulled.append(probe)
                yield probe

        def eval_counted(k, phi, *args):
            labelled.append(k)
            return eval_original(k, phi, *args)

        def check_counted(k, *args, **kwargs):
            checked.append(k.name)
            return check_original(k, *args, **kwargs)

        monkeypatch.setattr(V, "enumerate_structures", enumerate_counted)
        monkeypatch.setattr(V, "eval_mask", eval_counted)
        monkeypatch.setattr(V, "check_ctl_star", check_counted)
        v = decide_bisim_vacuity(P6, PA, fx("L"), bounded_validity=2)
        assert (v.status, v.route) == (VacuityStatus.VACUOUS, "bounded-validity")
        assert len(pulled) == 38 and "probe" not in checked
        # 2 + 36 * 2 = 74 states fit in the first union: one labelling of all 38 probes
        assert [(k.n, len(k.init)) for k in labelled] == [(74, 38)]
