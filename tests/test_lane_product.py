"""K||chi and K^(m) labelled as lanes of K: compose_sync with a complete
right factor, and duplicate_m, return a kripke.LaneProduct, whose CTL masks
mc reduces to fixpoints on the left factor and whose name-level parts are
built only when read."""

import random

import pytest

from vacmc import formula as F
from vacmc import kripke, vacuity
from vacmc.errors import EvalError
from vacmc.formula import parse_formula as p
from vacmc.kleene import M3
from vacmc.kripke import KripkeStructure, LaneProduct, chi, compose_sync, duplicate_m, labelled, restrict_init
from vacmc.mc import _Evaluator
from vacmc.vacuity import decide_bisim_vacuity

from helpers import oracle_compose_sync, oracle_duplicate_m, rand_ctl, shaped_kripke

PARTS = ("states", "_index", "init", "succ")


def lanes_k(rng, props=("p", "q")):
    """1-40 states, a share of them with a self-loop, several initial, and
    a fifth of the labels maybe."""
    n = rng.randint(1, 40)
    states = [f"s{i}" for i in range(n)]
    trans = []
    for i, s in enumerate(states):
        succ = {rng.randrange(n) for _ in range(rng.randint(1, 3))}
        if rng.random() < 0.3:
            succ.add(i)
        trans += [(s, states[j]) for j in sorted(succ)]
    labels = {s: {q: (M3 if rng.random() < 0.2 else rng.random() < 0.4) for q in props} for s in states}
    init = [s for s in states if rng.random() < 0.3] or [states[0]]
    return KripkeStructure("K", props, states, init, trans, labels)


def complete3():
    """A complete 3-state structure with no propositions."""
    states = ("t0", "t1", "t2")
    return KripkeStructure("T", (), states, states[:2], [(s, t) for s in states for t in states], {})


def incomplete():
    """A 2-state factor in which u1 does not step to u0."""
    return KripkeStructure("U", ("r",), ("u0", "u1"), ("u0",), [("u0", "u0"), ("u0", "u1"), ("u1", "u1")],
                           {"u1": {"r": True}})


def plain(o):
    """The oracle's structure rebuilt through KripkeStructure's constructor."""
    return KripkeStructure(o.name, o.props, o.states, o.init, o.trans, {s: o.labels_of(s) for s in o.states})


class TestLaneProduct:
    def test_masks_match_the_oracle_product(self, rng):
        for trial in range(120):
            k = lanes_k(rng)
            for factor, lanes in ((chi(), True), (chi("y"), True), (complete3(), True), (incomplete(), False)):
                got = compose_sync(k, factor)
                want = plain(oracle_compose_sync(k, factor))
                assert isinstance(got, LaneProduct) == lanes
                # leaves favour the factor's props, which are what tell one lane from another
                bodies = [F.nnf(rand_ctl(rng, k.props + factor.props * 3, 4)) for _ in range(4)]
                ev, oracle = _Evaluator(got, definite=True), _Evaluator(want, definite=True)
                for body in bodies:
                    assert ev.states(body) == oracle.states(body), F.render_formula(body)
                assert ev.memo == oracle.memo
                if lanes:  # the CTL route read no name-level part and no product predecessor list
                    assert not set(PARTS) & set(vars(got)) and got._pred is None
                masks = [0, want.full_mask, want.full_mask ^ 1, want.full_mask >> 1]
                masks += [rng.getrandbits(want.n) for _ in range(6)]
                for mask in masks:  # pre(M): the states with a successor in M
                    assert got.pre(mask) == sum(1 << i for i, row in enumerate(want.succ_masks) if row & mask)

    def test_nested_quantifiers_of_both_factors(self, rng):
        for k in [lanes_k(rng) for _ in range(20)]:
            got, want = compose_sync(k, chi()), plain(oracle_compose_sync(k, chi()))
            for text in ("A[(p | x) U (EX !x & q)]", "E[x R AF (p & !x)]", "AG (EX x -> AX (q | EG !x))",
                         "!A[!x R E[p U AX x]]", "EF (AG x | AG !x)", "E[x R (p & !x)]", "A[(!x | q) U (x & p)]"):
                body = F.nnf(p(text))
                assert _Evaluator(got, definite=True).states(body) == _Evaluator(want, definite=True).states(body)

    def test_a_check_of_k2_builds_no_product_part(self, rng):
        for trial in range(60):
            k = lanes_k(rng)
            got, want = duplicate_m(k, 2), plain(oracle_duplicate_m(k, 2))
            ev, oracle = _Evaluator(got, definite=True), _Evaluator(want, definite=True)
            for body in [F.nnf(rand_ctl(rng, k.props, 4)) for _ in range(4)]:
                assert ev.states(body) == oracle.states(body), F.render_formula(body)
            assert not set(PARTS) & set(vars(got)) and got._pred is None

    def test_parts_are_built_together_on_first_read(self):
        k = shaped_kripke(random.Random(0), "ring", 5)
        got, want = compose_sync(k, chi()), plain(oracle_compose_sync(k, chi()))
        assert got.name == "ring5||chi" and got.init_mask == want.init_mask
        assert not set(PARTS) & set(vars(got))
        assert got.succ == want.succ
        assert set(PARTS) <= set(vars(got))
        assert got.states == want.states and got.init == want.init and got == want


def masks_or_error(k, bodies, env):
    """Each body's mask on k, or the message of the EvalError it raises."""
    ev, out = _Evaluator(k, env=env), []
    for body in bodies:
        try:
            out.append(ev.states(body))
        except EvalError as e:
            out.append(str(e))
    return out


class TestSetAtomsOnLanes:
    """A set atom whose home has K's state tuple is carried to K by K's own
    bisimulation and spread over the lanes: the masks of the plain product,
    which carries it by a bisimulation of K||chi with the home."""

    @staticmethod
    def homes(rng, k):
        """K, and structures on K's state tuple: K with a fresh or a lane
        proposition, and K with other initial states."""
        mask = rng.getrandbits(k.n)
        inits = rng.sample(k.states, rng.randint(1, k.n))
        return [k, labelled(k, "r", mask), labelled(k, "x", mask), restrict_init(k, inits)]

    def test_masks_match_the_plain_product(self, rng):
        for trial in range(80):
            props = ("p", "q")[:rng.randint(1, 2)]  # one proposition: more states are bisimilar
            k = shaped_kripke(rng, rng.choice(["random", "chain", "ring"]), rng.randint(1, 25), props)
            k = restrict_init(k, rng.sample(k.states, rng.randint(1, min(3, k.n))))
            for factor in (chi(), chi("y"), complete3()):
                want = plain(oracle_compose_sync(k, factor))
                for home in self.homes(rng, k):
                    got = compose_sync(k, factor)
                    named = rng.sample(k.states, rng.randint(0, min(5, k.n)))
                    by_ref = F.SetAtom(k.name, named, ref=home)
                    by_env = F.SetAtom(k.name, named)
                    leaf = F.Atom(rng.choice(props + factor.props))
                    bodies = [by_ref, F.PathE(F.Future(F.And(by_ref, leaf))),
                              F.PathA(F.Globally(F.Implies(by_ref, F.PathA(F.Next(by_ref))))),
                              F.Or(rand_ctl(rng, props + factor.props, 3), F.Not(by_ref))]
                    env = {k.name: home}
                    assert masks_or_error(got, bodies, None) == masks_or_error(want, bodies, None)
                    assert masks_or_error(got, [by_env], env) == masks_or_error(want, [by_env], env)
                    if not set(home.props) & set(factor.props):  # carried on K: no product part was built
                        assert not set(PARTS) & set(vars(got)) and "_pred" not in vars(got)

    def test_a_ring_atom_builds_no_product_part(self, rng, monkeypatch):
        products, make = [], vacuity.compose_sync
        monkeypatch.setattr(vacuity, "compose_sync", lambda k1, k2: products.append(make(k1, k2)) or products[-1])
        k = shaped_kripke(rng, "ring", 3000)
        a = F.SetAtom(k.name, [f"s{i}" for i in rng.sample(range(3000), 5)], ref=k)
        v = decide_bisim_vacuity(F.Or(p("AG ((AX q) | (AX !q))"), F.And(a, F.Not(a))), F.Atom("q"), k)
        assert (v.route, v.status.value) == ("satx", "non-vacuous")
        [kx] = products
        assert isinstance(kx, LaneProduct) and not {"states", "succ", "_pred"} & set(vars(kx))


class TestVacuityWork:
    """satx and falx build no product part and one predecessor list, K's."""

    @pytest.fixture
    def counted(self, monkeypatch):
        products, pred = [], []
        make, build = vacuity.compose_sync, kripke._predecessor_lists
        monkeypatch.setattr(vacuity, "compose_sync", lambda k1, k2: products.append(make(k1, k2)) or products[-1])
        monkeypatch.setattr(kripke, "_predecessor_lists", lambda succ: pred.append(len(succ)) or build(succ))
        return products, pred

    # AF p | EG !p holds everywhere and EG p & AF !p nowhere, so on any K the
    # first is vacuously satisfied and the second vacuously falsified in q
    SAT = p("AG (AX q | AX !q | AF p | EG !p)")
    FAL = p("EF (EX q & EX !q & EG p & AF !p)")

    @pytest.mark.parametrize("shape", ["ring", "random"])
    def test_satx_and_falx_build_no_product_part(self, rng, counted, shape):
        products, pred = counted
        k = shaped_kripke(rng, shape, 3000)
        cases = [(self.SAT, "satx", "vacuous"), (self.FAL, "falx", "vacuous")]
        if shape == "ring":  # one successor per state: K satisfies the first, and falsifies the second
            cases += [(p("AG ((AX q) | (AX !q))"), "satx", "non-vacuous"),
                      (p("EF ((EX q) & (EX !q))"), "falx", "non-vacuous")]
        for phi, route, status in cases:
            v = decide_bisim_vacuity(phi, F.Atom("q"), k)
            assert (v.route, v.status.value) == (route, status)
            if route == "satx" and status == "non-vacuous":
                assert v.evidence["structure"] == "ring3000||chi"
        assert len(products) == len(cases) and all(isinstance(kx, LaneProduct) for kx in products)
        for kx in products:
            assert "states" not in vars(kx) and "succ" not in vars(kx) and kx._pred is None
        assert pred == [3000]
