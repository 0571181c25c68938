import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from vacmc import formula as F
from vacmc.bisim import (
    Relation,
    bisimilar_over,
    greatest_bisimulation,
    greatest_simulation,
    is_bisimulation,
    is_simulation,
    quotient_bisim,
    simulates_over,
)
from vacmc.errors import EvalError, KripkeError
from vacmc.formula import parse_formula as p
from vacmc.kripke import KripkeStructure, chi, compose_sync, duplicate_m, isomorphic, render_kripke, x_variants
from vacmc.mc import check_ctl_star, eval_mask

from helpers import (
    merge_abstraction,
    naive_greatest_bisimulation,
    naive_greatest_simulation,
    rand_ctl,
    rand_kripke,
    rand_kripke3,
    shaped_kripke,
)


class TestBisimilarOver:
    def test_l_and_m(self, fx):
        rel = bisimilar_over(fx("L"), fx("M"), ("p",))
        assert rel is not None
        assert {("a0", "b0"), ("a0", "b1")} <= set(rel.pairs)

    def test_m4_x_bisimilar_to_l(self, fx):
        m4 = x_variants(fx("M"), "x")[1]
        assert bisimilar_over(m4, fx("L"), ("p",)) is not None

    def test_v_and_valpha_differ(self, fx):
        assert bisimilar_over(fx("V"), fx("Valpha"), ("p", "q")) is None
        # oracle: they disagree on reachability of a p-state
        assert not check_ctl_star(fx("V"), p("EF p"))
        assert check_ctl_star(fx("Valpha"), p("EF p"))

    def test_uncommon_props_rejected(self, fx):
        with pytest.raises(KripkeError):
            bisimilar_over(fx("L"), fx("N"), ("p",))


class TestSimulatesOver:
    def test_m_simulates_l(self, fx):
        rel = simulates_over(fx("M"), fx("L"), ("p",))
        assert rel is not None
        assert set(rel.pairs) == {("b0", "a0"), ("b1", "a0")}

    def test_k_parallel_chi_simulates_x_variants(self, fx):
        k = fx("P")
        kx = compose_sync(k, chi())
        for v in x_variants(k, "x"):
            assert simulates_over(kx, v, ("p", "q", "x")) is not None

    def test_valpha_simulates_v(self, fx):
        rel = simulates_over(fx("Valpha"), fx("V"), ("p", "q"))
        assert rel is not None
        assert {("w0", "v0"), ("w1", "v1")} <= set(rel.pairs)


class TestReplay:
    def test_returned_relations_replay(self, rng, fx):
        pairs = [(fx("L"), fx("M"), ("p",)), (fx("M"), fx("M"), ("p",)), (fx("O"), fx("O"), ("p", "q"))]
        for _ in range(6):
            k = rand_kripke(rng, 4)
            pairs.append((k, rand_kripke(rng, 4), ("p", "q")))
        for k1, k2, over in pairs:
            rel = bisimilar_over(k1, k2, over)
            if rel is not None:
                assert is_bisimulation(k1, k2, over, rel.pairs)
            sim = simulates_over(k1, k2, over)
            if sim is not None:
                assert is_simulation(k1, k2, over, sim.pairs)

    def test_greatest_contains_all_witnesses(self, fx):
        # hand-built simulation must be inside the greatest one
        mine = {("b0", "a0"), ("b1", "a0")}
        assert mine <= greatest_simulation(fx("M"), fx("L"), ("p",))


class TestEquivalenceLaws:
    def test_reflexive_symmetric_transitive(self, rng, fx):
        ks = [fx("L"), fx("M"), fx("O")] + [rand_kripke(rng, 3) for _ in range(4)]
        for k in ks:
            over = k.props
            assert bisimilar_over(k, k, over) is not None
        l, m = fx("L"), fx("M")
        lm = bisimilar_over(l, m, ("p",))
        ml = bisimilar_over(m, l, ("p",))
        assert {(b, a) for a, b in lm.pairs} == set(ml.pairs)
        # transitivity through duplicates: L ~ M, M ~ M^2 => L ~ M^2
        from vacmc.kripke import duplicate_m

        m2 = duplicate_m(m, 2)
        assert bisimilar_over(m, m2, ("p",)) is not None
        assert bisimilar_over(l, m2, ("p",)) is not None

    def test_bisimulation_implies_both_simulations(self, rng):
        for _ in range(10):
            k1 = rand_kripke(rng, 3)
            k2 = rand_kripke(rng, 3)
            if bisimilar_over(k1, k2, ("p", "q")) is not None:
                assert simulates_over(k1, k2, ("p", "q")) is not None
                assert simulates_over(k2, k1, ("p", "q")) is not None


class TestQuotient:
    def test_m_collapses_to_l(self, fx):
        q = quotient_bisim(fx("M"), ("p",))
        assert q.n == 1
        assert isomorphic(q, fx("L")) is not None

    def test_l_already_minimal(self, fx):
        q = quotient_bisim(fx("L"))
        assert q.n == 1 and isomorphic(q, fx("L")) is not None

    def test_o_keeps_q_distinction(self, fx):
        q = quotient_bisim(fx("O"), ("p", "q"))
        assert q.n == 2 and isomorphic(q, fx("O")) is not None

    def test_construction_errors_are_kept(self, fx):
        with pytest.raises(KripkeError, match=r"^M/~: duplicate proposition names$"):
            quotient_bisim(fx("M"), ("p", "p"))
        k = KripkeStructure("C", ("p",), ["a", "b", "a,b"], ["a"], [(s, s) for s in ("a", "b", "a,b")],
                            {"a": {"p": True}, "b": {"p": True}})
        with pytest.raises(KripkeError, match=r"^C/~: duplicate state names$"):  # {a,b} twice
            quotient_bisim(k)

    def test_quotient_preserves_verdicts(self, rng, fx):
        pool = [rand_ctl(rng, ("p", "q"), 3) for _ in range(25)]
        for name in ("O", "P", "U", "V", "Valpha"):
            k = fx(name)
            q = quotient_bisim(k)
            assert bisimilar_over(q, k, k.props) is not None
            for phi in pool:
                assert check_ctl_star(q, phi) == check_ctl_star(k, phi), F.render_formula(phi)


def relation_cases(rng, count):
    """Seeded (k1, k2, over): 1-8 states, 2- and 3-valued labels, random pairs,
    duplicates, merged abstractions and k2 is k1, over random subsets."""
    for n in range(count):
        maybe = 0.3 if n % 2 else 0.0
        k1 = rand_kripke3(rng, 8, maybe=maybe, name="A")
        kind = n % 4
        if kind == 0:
            k2 = rand_kripke3(rng, 8, maybe=maybe, name="B")
        elif kind == 1:
            k2 = duplicate_m(k1, rng.randint(2, 3))
        elif kind == 2:
            k2 = merge_abstraction(rng, k1, "B")[0]
        else:
            k2 = k1
        yield k1, k2, tuple(q for q in k1.props if rng.random() < 0.6)


def inits_covered(k1, k2, pairs):
    """(every init of k1 related to an init of k2, every init of k2 to one of k1)."""
    fwd = all(any((s, t) in pairs for t in k2.init) for s in k1.init)
    bwd = all(any((s, t) in pairs for s in k1.init) for t in k2.init)
    return fwd, bwd


def naive_quotient_text(k, over):
    """The quotient's .kr text, blocks in order of first state, from oracle pairs."""
    pairs = naive_greatest_bisimulation(k, k, over)
    blocks, assigned = [], {}
    for s in k.states:
        if s not in assigned:
            members = [t for t in k.states if (s, t) in pairs]
            for t in members:
                assigned[t] = len(blocks)
            blocks.append(members)
    names = ["{" + ",".join(members) + "}" for members in blocks]
    labels = {names[i]: {q: k.label3(members[0], q) for q in over} for i, members in enumerate(blocks)}
    trans = sorted({(names[assigned[s]], names[assigned[t]]) for s, t in k.trans})
    init = list(dict.fromkeys(names[assigned[s]] for s in k.init))
    return render_kripke(KripkeStructure(f"{k.name}/~", over, names, init, trans, labels))


class TestAgainstNaiveOracles:
    def test_bisimulation(self, rng):
        verdicts = set()
        for k1, k2, over in relation_cases(rng, 300):
            want = naive_greatest_bisimulation(k1, k2, over)
            got = greatest_bisimulation(k1, k2, over)
            assert got.pairs == want and len(got) == len(want)
            assert is_bisimulation(k1, k2, over, got.pairs)
            rel = bisimilar_over(k1, k2, over)
            assert (rel is not None) == all(inits_covered(k1, k2, want))
            verdicts.add((rel is not None, k1 is k2))
        assert verdicts == {(True, True), (True, False), (False, False)}

    def test_simulation(self, rng):
        verdicts = set()
        for k1, k2, over in relation_cases(rng, 300):
            for left, right in ((k1, k2), (k2, k1)):
                want = naive_greatest_simulation(left, right, over)
                got = greatest_simulation(left, right, over)
                assert got.pairs == want and len(got) == len(want)
                assert is_simulation(left, right, over, got.pairs)
                rel = simulates_over(left, right, over)
                assert (rel is not None) == inits_covered(left, right, want)[1]
                verdicts.add(rel is not None)
        assert verdicts == {True, False}

    def test_quotient_keeps_block_order_and_names(self, rng):
        for k, _, over in relation_cases(rng, 150):
            assert render_kripke(quotient_bisim(k, over)) == naive_quotient_text(k, over)

    def test_foreign_set_atom_through_blocks_equals_through_pairs(self, rng):
        # at least 200 cases, and on until more than 100 set atoms were
        # checked on a bisimilar pair, whatever the seed
        checked = 0
        for n, (home, k, over) in enumerate(relation_cases(rng, 1000)):
            if n >= 200 and checked > 100:
                break
            if not k.is_classical or k is home:
                continue
            home = KripkeStructure("H", home.props, home.states, home.init, home.trans,
                                   {s: home.labels_of(s) for s in home.states})
            env = {"H": home}
            common = home.props
            rel = bisimilar_over(home, k, common)
            for _ in range(3):
                chosen = [s for s in home.states if rng.random() < 0.5]
                atom = F.SetAtom("H", chosen)
                if rel is None:
                    with pytest.raises(EvalError):
                        eval_mask(k, atom, env)
                    continue
                want = 0
                for s, t in rel.pairs:
                    if s in chosen:
                        want |= 1 << k.index(t)
                assert eval_mask(k, atom, env) == want
                checked += 1
        assert checked > 100


class TestRelationView:
    def test_pairs_are_a_frozenset_built_once(self, fx):
        rel = bisimilar_over(fx("L"), fx("M"), ("p",))
        assert isinstance(rel.pairs, frozenset) and rel.pairs is rel.pairs
        assert set(rel) == rel.pairs and len(rel) == len(rel.pairs)
        assert rel.related("a0", "b1") and not rel.related("a0", "nosuch")
        assert rel.inverse().pairs == {(t, s) for s, t in rel.pairs}
        assert (rel.left, rel.right) == ("L", "M")

    def test_membership_reads_rows(self, fx):
        rel = bisimilar_over(fx("L"), fx("M"), ("p",))
        assert ("a0", "b1") in rel and ("b1", "a0") not in rel and ("a0", "nosuch") not in rel
        assert ["a0", "b1"] not in rel and ("a0", "b1", "b1") not in rel and "a0" not in rel
        assert rel._pairs is None  # no name pair was built to answer

    @seed(20250810)
    @settings(max_examples=150, database=None, deadline=None)
    @given(st.data())
    def test_sorted_pairs_and_membership_against_pairs(self, data):
        """Names s0..s13 listed in a shuffled order: string order (s10 < s2)
        differs from index order on both sides."""
        k1 = data.draw(_named_structures("A"))
        k2 = data.draw(st.sampled_from([None, 2, 3]).flatmap(
            lambda m: _named_structures("B") if m is None else st.just(duplicate_m(k1, m))))
        for rel in (greatest_bisimulation(k1, k2, ("p", "q")), greatest_simulation(k1, k2, ("p",)),
                    greatest_simulation(k2, k1, ("p", "q"))):
            assert rel.sorted_pairs() == sorted([s, t] for s, t in rel.pairs)
            pairs = rel.pairs
            left = [*rel._k1.states, "nosuch"]
            right = [*rel._k2.states, "nosuch"]
            assert all(rel.related(s, t) is ((s, t) in pairs) is ((s, t) in rel) for s in left for t in right)


@st.composite
def _named_structures(draw, name):
    n = draw(st.integers(1, 14))
    states = [f"s{i}" for i in draw(st.permutations(range(n)))]
    trans = [(s, t) for s in states for t in draw(st.lists(st.sampled_from(states), min_size=1, max_size=3))]
    labels = {s: {"p": draw(st.booleans()), "q": draw(st.booleans())} for s in states}
    init = draw(st.lists(st.sampled_from(states), min_size=1, max_size=2))
    return KripkeStructure(name, ("p", "q"), states, init, trans, labels)


class TestScaling:
    def test_quotient_of_a_long_chain(self):
        n = 10_000
        states = [f"s{i}" for i in range(n)]
        trans = [(states[i], states[min(i + 1, n - 1)]) for i in range(n)]
        k = KripkeStructure("chain", ("p",), states, ["s0"], trans, {states[-1]: {"p": True}})
        q = quotient_bisim(k)
        # every state is its own block: its distance to p tells it apart
        assert q.n == n and q.states[:2] == ("{s0}", "{s1}") and q.init == ("{s0}",)

    def test_random_graph_bisimilar_to_its_duplicate(self, rng):
        k = shaped_kripke(rng, "random", 2000)
        k2 = duplicate_m(k, 2)
        rel = bisimilar_over(k, k2, k.props)
        assert rel is not None
        row = rel.rows[k2.index("(s7,1)")]
        assert row >> k.index("s7") & 1
