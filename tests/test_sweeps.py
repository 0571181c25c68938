"""Sweeps over the labelings of one atom: differential tests against the
substitute-and-check-per-mask oracles, and guards on the work per sweep."""

import pytest

from vacmc import formula as F
from vacmc import mc, qctl, three_valued, vacuity
from vacmc.errors import EvalError
from vacmc.formula import parse_formula as p
from vacmc.kleene import M3
from vacmc.kripke import KripkeStructure, duplicate_m, x_variants
from vacmc.qctl import eval_bisimulation, eval_structural, eval_tree
from vacmc.three_valued import vacuity_via_thorough
from vacmc.vacuity import _Query, _variant_disagreement, decide_bisim_vacuity, structure_vacuous

from helpers import (
    LARGE_CLOSURE,
    oracle_eval_structural,
    oracle_structure_vacuous,
    oracle_sweep,
    oracle_variant_disagreement,
    per_mask,
    proper_subformulas,
    rand_ctl,
    rand_kripke,
    ring,
    transpose,
)

# (phi, psi): psi atomic and not, under one and under both polarities, inside
# a genuine CTL* path formula (the tableau route), and next to a CTL part.
CASES = [
    ("(EX p) | (AX !p)", "p"),
    ("AG ((AX (p & q)) | (AX !(p & q)))", "p & q"),
    ("E (G F (p & q) & F !(p & q))", "p & q"),
    ("A (F G q | G F !q) -> EX q", "q"),
    ("E[p U EX q] & !EG (EX q)", "EX q"),
    ("A (X p U q) | E (F !p & G q)", "p"),
]

# Quantified bodies over x, with the same coverage.
BODIES = [
    "AG (x -> AX x)",
    "(EX x) | (AX !x)",
    "E (G F x & F !x)",
    "A (F x) -> EF (x & p)",
    "AG (EX x | AX !x) & EF q",
]


def foreign_case(k):
    """phi with a set atom of a structure bisimilar to k (not k itself)."""
    h = duplicate_m(k, 2)
    atom = F.SetAtom(h.name, h.states[::3], ref=h)
    phi = F.And(F.PathE(F.Next(F.Atom("q"))), F.PathA(F.Next(F.Or(atom, F.Not(F.Atom("q"))))))
    return phi, F.Atom("q")


def foreign_body(k):
    h = duplicate_m(k, 2)
    atom = F.SetAtom(h.name, h.states[1::2], ref=h)
    return F.Or(F.PathE(F.Future(F.And(F.Atom("x"), atom))), F.PathA(F.Globally(F.Not(F.Atom("x")))))


def structures(rng, count, max_states=8):
    return [rand_kripke(rng, max_states, name=f"R{i}") for i in range(count)]


@pytest.fixture
def as_oracle(monkeypatch):
    """Run a call with every sweep replaced by its per-mask oracle: the
    decisions of vacuity, qctl and three_valued all sweep through vacuity."""

    def run(fn, *args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(vacuity, "structure_vacuous", oracle_structure_vacuous)
            m.setattr(vacuity, "sweep", oracle_sweep)
            m.setattr(vacuity, "_variant_disagreement", oracle_variant_disagreement)
            return fn(*args, **kwargs)

    return run


def _outcome(fn, *args, **kwargs):
    """Result or raised error of a call, comparable across implementations."""
    try:
        return fn(*args, **kwargs)
    except Exception as e:  # the oracle must raise the same error
        return (type(e).__name__, str(e))


class TestStructureSweep:
    def test_cases_match_the_oracle(self, rng):
        for k in structures(rng, 12):
            cases = [(p(a), p(b)) for a, b in CASES] + [foreign_case(k)]
            for phi, psi in cases:
                assert structure_vacuous(phi, psi, k) == oracle_structure_vacuous(phi, psi, k), F.render_formula(phi)

    def test_random_ctl_matches_the_oracle(self, rng):
        for k in structures(rng, 25, max_states=6):
            phi = rand_ctl(rng, ["p", "q"], 4)
            psi = rng.choice(proper_subformulas(phi))
            if not F.is_state_formula(psi):
                continue
            assert structure_vacuous(phi, psi, k) == oracle_structure_vacuous(phi, psi, k)

    def test_labelings_match_the_oracle(self, rng):
        for k in structures(rng, 12):
            bodies = [p(b) for b in BODIES] + [foreign_body(k)]
            for body in bodies:
                for q in (F.ForallProp("x", body), F.ExistsProp("x", body)):
                    assert eval_structural(k, q) == oracle_eval_structural(k, q), F.render_formula(q)

    def test_errors_match_the_oracle(self, fx):
        k = fx("M")
        unknown = p("AG (x -> AX z)")
        assert _outcome(eval_structural, k, F.ForallProp("x", unknown)) == _outcome(
            oracle_eval_structural, k, F.ForallProp("x", unknown)
        )
        assert _outcome(structure_vacuous, p("EX p & EF z"), F.Atom("p"), k) == _outcome(
            oracle_structure_vacuous, p("EX p & EF z"), F.Atom("p"), k
        )


# The hole x under every CTL operator in both polarities, nested and negated,
# beside a set atom of K ({s0}@R) and under genuine path quantifiers.
HOLES = [
    "x",
    "!x",
    "EX x",
    "AX !x",
    "E[p U x]",
    "A[x U q]",
    "E[x R p]",
    "A[p R !x]",
    "EF (x & q)",
    "AF !x",
    "EG (x | p)",
    "AG (x -> AX x)",
    "!EG !(x & EX x)",
    "E[(x | p) U (q & !x)] -> EF {s0}@R",
    "A[!x U EX x] | AX (x -> q)",
    "AG (EX x | AX !x) & EF ({s0}@R & !x)",
]
PATH_HOLES = ["E (G F x & F !p)", "A (x U (q R X x)) | EG x", "!E (X x & F (q & !x))"]


def sized_kripke(rng, n, name="R"):
    """A random structure of exactly n states, with several initial states when n > 1."""
    states = [f"s{i}" for i in range(n)]
    labels = {s: {"p": rng.random() < 0.5, "q": rng.random() < 0.5} for s in states}
    trans = [(s, t) for s in states for t in rng.sample(states, rng.randint(1, min(n, 3)))]
    init = rng.sample(states, rng.randint(1, max(1, n // 2)))
    return KripkeStructure(name, ("p", "q"), states, init, trans, labels)


class TestLaneSweep:
    """mc.sweep against the substitute-and-check-per-mask oracle, mask by
    mask; from 7 states on a sweep runs over more than one chunk."""

    X = F.Atom("x")

    def test_holes_match_the_oracle(self, rng):
        for n in range(1, 11):
            k = sized_kripke(rng, n)
            texts = HOLES + (PATH_HOLES if n <= 8 else [])
            for phi in [p(t) for t in texts] + [foreign_body(k)]:
                want = per_mask(oracle_sweep(k, phi, self.X))
                assert per_mask(mc.sweep(k, phi, self.X)) == want, (n, F.render_formula(phi))

    def test_random_ctl_matches_the_oracle(self, rng):
        for i in range(40):
            k = sized_kripke(rng, 1 + i % 8)
            phi = rand_ctl(rng, ["p", "q", "x"], 4)
            assert per_mask(mc.sweep(k, phi, self.X)) == per_mask(oracle_sweep(k, phi, self.X)), F.render_formula(phi)

    def test_a_resumed_sweep_finds_the_same_first_masks(self, rng):
        for n in (3, 7, 9):
            k = sized_kripke(rng, n)
            for text in HOLES[2:] + PATH_HOLES[:1]:
                body = p(text)
                want = {}
                for mask, holds in per_mask(oracle_sweep(k, body, self.X)):
                    want.setdefault(holds, mask)
                for order in ((True, False), (False, True)):
                    q = _Query(k, body, "x")
                    assert [q.first(v) for v in order] == [want.get(v) for v in order], (n, text)

    def test_errors_match_the_oracle(self, fx):
        three = KripkeStructure("T", ("p",), ("s", "t"), ("s",), [("s", "t"), ("t", "s")],
                                {"s": {"p": True}, "t": {"p": M3}})
        cases = [(three, p("EX x")), (fx("M"), p("AG (x -> AX z)")), (fx("M"), p("EF z & EX x")),
                 (fx("M"), p("E (G F x & F z)"))]
        for k, phi in cases:
            got = _outcome(lambda: next(mc.sweep(k, phi, self.X)))
            assert got == _outcome(lambda: next(oracle_sweep(k, phi, self.X))) and isinstance(got[0], str)


class TestChunkBits:
    """Each chunk's bits against the per-mask oracle, the first labelings a
    query reads off them, and the replay of each labeling it reports."""

    X = F.Atom("x")

    def test_bits_and_first_labelings_match_the_oracle(self, rng):
        for i in range(36):
            k = sized_kripke(rng, 1 + i % 9)
            phi = p(rng.choice(HOLES)) if i % 3 else rand_ctl(rng, ["p", "q", "x"], 4)
            want = [holds for _, holds in per_mask(oracle_sweep(k, phi, self.X))]
            for base, width, bits in mc.sweep(k, phi, self.X):
                assert [bool(bits >> j & 1) for j in range(width)] == want[base:base + width]
            lowest = {v: want.index(v) if v in want else None for v in (True, False)}
            agreed = want[0] if len(set(want)) == 1 else None
            for order in ((True, False), (False, True)):
                q = _Query(k, phi, "x")
                assert [q.first(v) for v in order] == [lowest[v] for v in order], F.render_formula(phi)
                assert q.agreed == agreed

    def test_a_flipped_lane_bit_fails_the_replay(self, monkeypatch):
        k, phi = TestWorkPerSweep.ring(5), p("EF (x & q)")  # one initial state, s0
        lanes = mc._LaneSweep.lanes

        def flipped(self, base, width):
            root = list(lanes(self, base, width))
            root[0] ^= base == 0  # labeling 0 at s0
            return root

        truth = _Query(k, phi, "x").first(True)
        monkeypatch.setattr(mc._LaneSweep, "lanes", flipped)
        assert truth != 0
        with pytest.raises(AssertionError, match="disagree on labeling 0"):
            _Query(k, phi, "x").first(True)

    def test_a_full_sweep_checks_only_what_it_reports(self, monkeypatch):
        """A 2^12 sweep makes no check per labeling, only one replay per
        verdict it reports."""
        checked = []
        for module in (mc, vacuity):
            monkeypatch.setattr(module, "check_ctl_star", lambda k, *args, check=module.check_ctl_star, **kw: (
                checked.append(k.name), check(k, *args, **kw))[1])
        k = TestWorkPerSweep.ring(12)
        q = _Query(k, p("AG (EX x | EX !x | q)"), "x")  # true under every labeling
        assert (q.first(False), q.first(True), q.agreed) == (None, 0, True)
        assert checked == ["ring12"]
        q = _Query(k, p("AG (x -> AX !x) & EF (x & p & !q)"), "x")
        assert q.first(True) is not None and q.first(False) == 0 and q.agreed is None
        assert checked == ["ring12"] * 3


# Leaves under a path quantifier: x and p, and state formulas over x (CTL
# and a nested path quantifier), so that several leaves vary at once.
PATH_LEAVES = ["x", "p", "q", "EX x", "AG (x | p)", "E[q U x]", "A[x R p]", "E (F G x)"]


def rand_path_body(rng, temporal):
    """A path formula over PATH_LEAVES with exactly `temporal` temporal operators."""
    if temporal == 0:
        leaf = p(rng.choice(PATH_LEAVES))
        return F.Not(leaf) if rng.random() < 0.3 else leaf
    c = rng.randrange(8)
    if c < 3:
        return (F.Next, F.Future, F.Globally)[c](rand_path_body(rng, temporal - 1))
    if c == 3:
        return F.Not(rand_path_body(rng, temporal))
    rest = temporal - (c < 6)  # U and R spend one operator, & and | none
    left = rng.randint(0, rest)
    node = (F.Until, F.Release, F.And, F.Or)[c - 4]
    return node(rand_path_body(rng, left), rand_path_body(rng, rest - left))


class TestPathLanes:
    """A hole under a genuine path quantifier: each chunk's one product of
    the closure automaton with k, against one AtomGraph per labeling."""

    X = F.Atom("x")

    def test_lanes_match_one_atom_graph_per_labeling(self, rng):
        several = routed = 0
        for i in range(48):
            k = rand_kripke(rng, 10)
            phi = rng.choice([F.PathE, F.PathA])(rand_path_body(rng, 1 + i % 6))
            ev = mc._Evaluator(k, force_tableau=i % 4 == 0)
            lanes = mc._LaneSweep(ev, phi, self.X)
            got = [m for base, width in mc._chunks(k.n) for m in transpose(lanes.lanes(base, width), width)]
            closure, own = ev._closure(phi)
            several += sum(self.X in F.subformulas(f) for f in own) > 1
            routed += phi in ev._tableau
            for mask, kx in enumerate(x_variants(k, "x")):
                leaves = [mc.eval_mask(kx, f) for f in own]
                e = mc.AtomGraph(kx, closure.pathform, leaves, closure).e_mask()
                want = e if isinstance(phi, F.PathE) else kx.full_mask ^ e
                assert got[mask] == want, (k.n, mask, F.render_formula(phi))
        assert several >= 16 and routed >= 40

    def test_a_large_closure_is_refused_before_any_table(self, fx, monkeypatch):
        def no_table(closure, sig):
            raise AssertionError("a table of a refused closure was built")

        monkeypatch.setattr(mc._Closure, "_build_table", no_table)
        with pytest.raises(EvalError, match=r"closure too large \(16 temporal operators\)"):
            next(mc.sweep(fx("M"), p(LARGE_CLOSURE), self.X))


class TestDecisionsMatchTheOracle:
    def test_decide_bisim_vacuity(self, rng, as_oracle):
        for k in structures(rng, 10, max_states=6):
            cases = [(p(a), p(b)) for a, b in CASES] + [foreign_case(k)]
            for phi, psi in cases:
                got = _outcome(decide_bisim_vacuity, phi, psi, k, variant_bound=8)
                want = as_oracle(_outcome, decide_bisim_vacuity, phi, psi, k, variant_bound=8)
                got = got.to_dict() if hasattr(got, "to_dict") else got
                want = want.to_dict() if hasattr(want, "to_dict") else want
                assert got == want, F.render_formula(phi)

    def test_eval_bisimulation_and_tree(self, rng, as_oracle):
        for k in structures(rng, 10, max_states=6):
            bodies = [p(b) for b in BODIES] + [foreign_body(k)]
            for body in bodies:
                for q in (F.ForallProp("x", body), F.ExistsProp("x", body)):
                    for fn in (eval_bisimulation, eval_tree):
                        got = _outcome(fn, k, q, variant_bound=8)
                        assert got == as_oracle(_outcome, fn, k, q, variant_bound=8), F.render_formula(q)

    def test_variant_witnesses(self, rng):
        x = F.Atom("x")
        for k in structures(rng, 15, max_states=6):
            for body in [p(b) for b in BODIES] + [foreign_body(k)]:
                for reference in (True, False):
                    bases = (k, duplicate_m(k, 2))
                    got = _outcome(_variant_disagreement, bases, body, x.name, reference, 8)
                    want = _outcome(oracle_variant_disagreement, bases, body, x.name, reference, 8)
                    if isinstance(want, KripkeStructure):
                        assert got.name == want.name and got == want
                    else:
                        assert got == want


class TestWorkPerSweep:
    """A sweep substitutes and builds structures a constant number of times:
    one structure per replay of a reported labeling, none per labeling."""

    # the lane passes of a 12-state sweep: each after the second as wide as all before it
    PASSES_12 = [(0, 64), (64, 64), (128, 128), (256, 256), (512, 512), (1024, 1024), (2048, 2048)]

    @pytest.fixture
    def counts(self, monkeypatch):
        seen = {"substitute": 0, "structures": 0}
        substitute, build = F.substitute, KripkeStructure._set

        def counting_substitute(*args):
            seen["substitute"] += 1
            return substitute(*args)

        def counting_build(self, *args):  # every structure built, by __init__ or index-level
            seen["structures"] += 1
            return build(self, *args)

        monkeypatch.setattr(F, "substitute", counting_substitute)
        monkeypatch.setattr(KripkeStructure, "_set", counting_build)
        return seen

    ring = staticmethod(ring)

    def test_structure_sweep(self, counts):
        phi = p("AG (EX (q & p) | EX !(q & p) | q)")  # the same verdict for every labeling
        for n in (3, 10):
            k = self.ring(n)
            counts.update(substitute=0, structures=0)
            assert structure_vacuous(phi, p("q & p"), k) == (True, None)
            assert counts == {"substitute": 1, "structures": 1}, n  # the replay of labeling 0

    def test_variant_sweep(self, counts):
        phix = p("AG (EX x | EX !x | q)")
        for n in (3, 10):
            k = self.ring(n)
            counts.update(substitute=0, structures=0)
            assert _variant_disagreement([k], phix, "x", True, 12) is None
            assert counts == {"substitute": 0, "structures": 0}, n
            found = _variant_disagreement([k], p("EF x"), "x", True, 12)
            assert found.name == f"ring{n}^1" and counts["structures"] == 2  # the replay and the witness

    def test_lane_passes(self, monkeypatch):
        """A 12-state CTL sweep takes 7 lane passes, each after the second as wide as
        all before it, and labels only the hole-free nodes with masks, once."""
        passes, labelled = [], []
        lanes, label = mc._LaneSweep.lanes, mc._Evaluator._states

        def counting_lanes(self, base, width):
            passes.append((base, width))
            return lanes(self, base, width)

        def counting_states(self, f, operands):
            labelled.append(f)
            return label(self, f, operands)

        monkeypatch.setattr(mc._LaneSweep, "lanes", counting_lanes)
        monkeypatch.setattr(mc._Evaluator, "_states", counting_states)
        k = self.ring(12)
        phi = p("AG (EX x | AX !x) & E[p U (x & q)] & !EG (x -> EX (q | p))")
        verdicts = per_mask(mc.sweep(k, phi, F.Atom("x")))
        assert [mask for mask, _ in verdicts] == list(range(4096))
        assert passes == self.PASSES_12
        assert labelled == [p("p"), p("q"), p("q | p"), p("EX (q | p)")]

    def test_a_path_hole_builds_no_atom_graph(self, monkeypatch):
        """Under a genuine path quantifier the same 12-state sweep decides each
        lane pass from one product, and builds no AtomGraph per labeling."""
        passes, graphs = [], []
        lanes, init = mc._LaneSweep.lanes, mc.AtomGraph.__init__

        def counting_lanes(self, base, width):
            passes.append((base, width))
            return lanes(self, base, width)

        def counting_init(self, *args):
            graphs.append(args[1])
            init(self, *args)

        monkeypatch.setattr(mc._LaneSweep, "lanes", counting_lanes)
        monkeypatch.setattr(mc.AtomGraph, "__init__", counting_init)
        verdicts = per_mask(mc.sweep(self.ring(12), p("A ((X x) | (X !x))"), F.Atom("x")))
        assert verdicts == [(mask, True) for mask in range(4096)]
        assert passes == self.PASSES_12 and graphs == []


class TestWorkPerQuery:
    """One query sweeps each structure's labelings at most once, skips what an
    earlier sweep settled, builds no structure per completion and evaluates
    the compositional bound once."""

    UNKNOWN_BODY = "AG ((AX x) | (EX !x))"

    @pytest.fixture
    def swept(self, monkeypatch):
        """Names of the structures whose labelings are swept, in order."""
        names = []
        sweep = vacuity.sweep

        def counting(k, *args):
            names.append(k.name)
            return sweep(k, *args)

        monkeypatch.setattr(vacuity, "sweep", counting)
        return names

    def test_tree_sweeps_k_once(self, fx, swept):
        r = eval_tree(fx("M"), F.ForallProp("x", p(self.UNKNOWN_BODY)))
        assert (r.value, r.route) == (None, qctl.UNKNOWN)
        assert swept == ["M"]

    def test_a_quotient_of_k_size_is_not_swept_after_k(self, fx, swept):
        l = fx("L")
        assert decide_bisim_vacuity(p("AG (AX p | EX !p)"), F.Atom("p"), l).route == "unknown"
        assert swept == ["L", "L||chi_x0"]
        del swept[:]
        q = F.ForallProp("x", p(self.UNKNOWN_BODY))
        assert eval_bisimulation(l, q).route == qctl.UNKNOWN
        assert swept == ["L", "L^(2)"]
        del swept[:]
        # past --bound, K is not swept, so its quotient still is
        assert eval_bisimulation(l, q, bound=0).route == qctl.UNKNOWN
        assert swept == ["L/~", "L^(2)"]

    def test_thorough_sweeps_k_once(self, swept):
        """With one initial state K_s is K: the F side reads K's sweep negated."""
        v = vacuity_via_thorough(p("AG (AX p | EX !p)"), F.Atom("p"), TestWorkPerSweep.ring(8))
        assert v.bounds == {"compositional": "maybe", "labeling": "true"}
        assert swept == ["ring8"]

    def test_thorough_builds_no_completion_and_one_bound(self, monkeypatch):
        seen = {"structures": 0, "compositional": 0}
        build, compositional = KripkeStructure._set, three_valued.eval_compositional3

        def counting_build(self, *args):
            seen["structures"] += 1
            return build(self, *args)

        def counting_compositional(*args):
            seen["compositional"] += 1
            return compositional(*args)

        monkeypatch.setattr(KripkeStructure, "_set", counting_build)
        monkeypatch.setattr(three_valued, "eval_compositional3", counting_compositional)
        built = []
        for n in (3, 8):
            k = TestWorkPerSweep.ring(n)
            seen.update(structures=0, compositional=0)
            v = vacuity_via_thorough(p("AG (AX p | EX !p)"), F.Atom("p"), k)
            assert v.bounds == {"compositional": "maybe", "labeling": "true"}
            assert seen["compositional"] == 1, n
            built.append(seen["structures"])
        assert built[0] == built[1] < 8
