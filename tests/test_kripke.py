import itertools
import time
from collections.abc import Sequence

import pytest

from vacmc import formula as F
from vacmc.bisim import bisimilar_over
from vacmc.errors import KripkeError
from vacmc.kleene import F3, M3, T3
from vacmc.kripke import (
    FIXTURE_NAMES,
    KripkeStructure,
    UnrollingMap,
    chi,
    compose_sync,
    duplicate_m,
    is_deterministic,
    isomorphic,
    load_fixture,
    mask_members,
    parse_kripke,
    reachable_part,
    remove_prop,
    render_kripke,
    restrict_init,
    structurally_equal,
    validate_unrolling_map,
    x_variants,
)

from vacmc.mc import check_ctl_star
from vacmc.three_valued import labeling_completions, lift_kx

from helpers import (
    OracleKripkeStructure,
    oracle_compose_sync,
    oracle_duplicate_m,
    oracle_parse_kripke,
    oracle_restrict_init,
    oracle_x_variants,
    rand_kripke,
    shaped_kripke,
)


class TestFormat:
    def test_fixture_l(self, fx):
        l = fx("L")
        assert l.states == ("a0",) and l.init == ("a0",)
        assert l.label3("a0", "p") is T3
        assert l.trans == (("a0", "a0"),)

    def test_fixture_m(self, fx):
        m = fx("M")
        assert set(m.states) == {"b0", "b1"}
        assert set(m.trans) == {("b0", "b0"), ("b0", "b1"), ("b1", "b1")}
        assert all(m.label3(s, "p") is T3 for s in m.states)

    def test_three_valued_labels(self):
        k = parse_kripke("kripke T\nprops: p q\ninit: s\nstate s: p=M -q\ntrans: s s\n")
        assert k.label3("s", "p").value == "maybe"
        assert k.label3("s", "q") is F3
        assert not k.is_classical

    def test_totality_error(self):
        with pytest.raises(KripkeError, match="outgoing"):
            parse_kripke("kripke B\nprops: p\ninit: s\nstate s: p\nstate t:\ntrans: s t\n")

    def test_undeclared_prop(self):
        with pytest.raises(KripkeError, match="undeclared proposition"):
            parse_kripke("kripke B\nprops: p\ninit: s\nstate s: q\ntrans: s s\n")

    def test_unknown_proposition_in_any_mask(self, fx):
        k = fx("L")
        for lookup in (k.true_mask, k.maybe_mask):
            with pytest.raises(KripkeError, match="unknown proposition 'z'"):
                lookup("z")
        with pytest.raises(KripkeError, match="unknown proposition 'z'"):
            k.label3(k.states[0], "z")

    def test_empty_init(self):
        with pytest.raises(KripkeError, match="initial"):
            parse_kripke("kripke B\nprops: p\ninit:\nstate s: p\ntrans: s s\n")

    def test_roundtrip_all_fixtures(self, fx):
        for name in FIXTURE_NAMES:
            k = fx(name)
            assert parse_kripke(render_kripke(k)) == k

    def test_roundtrip_random(self, rng):
        for _ in range(30):
            k = rand_kripke(rng, 5)
            assert parse_kripke(render_kripke(k)) == k


class TestCompose:
    def test_l_parallel_n_is_o(self, fx):
        o = compose_sync(fx("L"), fx("N"))
        assert isomorphic(o, fx("O")) is not None
        assert bisimilar_over(o, fx("O"), ("p", "q")) is not None

    def test_p_parallel_chi_is_q(self, fx):
        q = compose_sync(fx("P"), chi())
        assert isomorphic(q, fx("Q")) is not None

    def test_neutral_element(self, fx):
        one = KripkeStructure("one", (), ("u",), ("u",), [("u", "u")], {"u": {}})
        for name in ("L", "M", "P"):
            k = fx(name)
            assert bisimilar_over(compose_sync(k, one), k, k.props) is not None

    def test_overlap_rejected(self, fx):
        with pytest.raises(KripkeError, match="disjoint"):
            compose_sync(fx("L"), fx("M"))


class TestChi:
    def test_shape(self):
        x = chi()
        assert x.n == 2 and len(x.trans) == 4 and len(x.init) == 2
        assert x.label3("x0", "x") is F3 and x.label3("x1", "x") is T3

    def test_doubles_statespace(self, fx):
        assert compose_sync(fx("M"), chi()).n == 2 * fx("M").n

    def test_bisimilar_to_one_state_over_nothing(self):
        one = KripkeStructure("one", (), ("u",), ("u",), [("u", "u")], {"u": {}})
        assert bisimilar_over(chi(), one, ()) is not None


class TestDuplicate:
    def test_l_twice(self, fx):
        d = duplicate_m(fx("L"), 2)
        assert d.n == 2 and len(d.trans) == 4
        assert all(d.label3(s, "p") is T3 for s in d.states)

    def test_identity_for_one(self, fx):
        for name in ("L", "M", "P"):
            assert isomorphic(duplicate_m(fx(name), 1), fx(name)) is not None

    def test_bisimilar_for_any_m(self, fx):
        for name in ("L", "M", "N", "O", "P", "U", "V"):
            k = fx(name)
            for m in (1, 2, 3):
                assert bisimilar_over(duplicate_m(k, m), k, k.props) is not None

    def test_zero_rejected(self, fx):
        with pytest.raises(KripkeError):
            duplicate_m(fx("L"), 0)


class TestRemoveProp:
    def test_inverse_of_variants(self, fx):
        for name in ("L", "M", "P"):
            k = fx(name)
            for v in x_variants(k, "w"):
                assert structurally_equal(remove_prop(v, "w"), k)

    def test_o_minus_q_bisimilar_l(self, fx):
        k = remove_prop(fx("O"), "q")
        assert k.props == ("p",)
        assert bisimilar_over(k, fx("L"), ("p",)) is not None

    def test_absent_prop_rejected(self, fx):
        with pytest.raises(KripkeError):
            remove_prop(fx("L"), "z")


class TestXVariants:
    def test_counts(self, fx, rng):
        assert len(x_variants(fx("L"), "x")) == 2
        assert len(x_variants(fx("M"), "x")) == 4
        for _ in range(5):
            k = rand_kripke(rng, 4)
            assert len(x_variants(k, "w")) == 2 ** k.n

    def test_variants_x_bisimilar(self, fx):
        for name in ("L", "M", "P"):
            k = fx(name)
            variants = x_variants(k, "w")
            for v in variants:
                assert bisimilar_over(v, k, k.props) is not None
            for v in variants[:2]:
                assert bisimilar_over(v, variants[-1], k.props) is not None

    def test_existing_prop_rejected(self, fx):
        with pytest.raises(KripkeError):
            x_variants(fx("L"), "p")

    def test_lazy_sequence_matches_the_eager_list(self, fx, rng):
        for k in [fx("M"), fx("P")] + [rand_kripke(rng, 5) for _ in range(4)]:
            variants, eager = x_variants(k, "w"), oracle_x_variants(k, "w")
            assert isinstance(variants, Sequence) and len(variants) == len(eager) == 2 ** k.n
            for got, want in zip(variants, eager):
                assert got.name == want.name and structurally_equal(got, want)
            assert [v.name for v in variants] == [v.name for v in eager]
            for i in (0, 1, -1, -len(eager)):
                assert variants[i].name == eager[i].name and structurally_equal(variants[i], eager[i])
            for part in (slice(None, 3), slice(1, None, 2), slice(-2, None), slice(None, None, -3), slice(5, 1)):
                assert [v.name for v in variants[part]] == [v.name for v in eager[part]]
            for i in (len(eager), -len(eager) - 1):
                with pytest.raises(IndexError):
                    variants[i]

    def test_variants_share_predecessor_lists(self, fx):
        k = fx("M")
        variants = x_variants(k, "w")
        assert variants[0].predecessors() is k.predecessors() is variants[-1].predecessors()


class TestDeterministic:
    def test_fixtures(self, fx):
        assert is_deterministic(fx("L"))
        assert not is_deterministic(fx("M"))
        assert is_deterministic(fx("P"))
        assert not is_deterministic(fx("chi"))


class TestMaskMembers:
    def test_sparse_and_dense_masks(self, rng):
        for width in (1, 12, 64, 300, 3000):
            for density in (0.0, 0.01, 0.5, 1.0):
                members = [i for i in range(width) if rng.random() < density]
                mask = sum(1 << i for i in members)
                assert mask_members(mask) == members, (width, density)


class TestReachable:
    def test_matches_breadth_first_search(self, rng):
        structures = [rand_kripke(rng, 6) for _ in range(20)]
        structures += [shaped_kripke(rng, shape, 120) for shape in ("random", "chain", "ring", "ladder")]
        for k in structures:
            for start in (None, 1 << (k.n - 1)):
                seen = set(k.init) if start is None else {k.states[-1]}
                todo = list(seen)
                while todo:
                    for t in k.successors(todo.pop()):
                        if t not in seen:
                            seen.add(t)
                            todo.append(t)
                assert k.reachable_mask(start) == k.mask_of(seen), k.name

    def test_reachable_part_of_a_long_chain(self, rng):
        k = shaped_kripke(rng, "chain", 400)
        assert k.reachable_mask() == k.full_mask
        assert reachable_part(k).n == 400
        assert is_deterministic(k)


class TestUnrollingMap:
    def _alternating_lasso(self):
        return KripkeStructure(
            "T1",
            ("p", "x"),
            ("t0", "t1"),
            ("t0",),
            [("t0", "t1"), ("t1", "t0")],
            {"t0": {"p": True, "x": True}, "t1": {"p": True, "x": False}},
        )

    def test_valid_witness(self, fx):
        u = UnrollingMap(self._alternating_lasso(), fx("L"), {"t0": "a0", "t1": "a0"})
        assert validate_unrolling_map(u, "x")

    def test_branching_mismatch(self, fx):
        m4 = x_variants(fx("M"), "x")[1]  # x exactly on b0
        u = UnrollingMap(m4, fx("L"), {"b0": "a0", "b1": "a0"})
        assert not validate_unrolling_map(u, "x")

    def test_label_flip_invalid(self, fx):
        src = KripkeStructure(
            "T2",
            ("p", "x"),
            ("t0", "t1"),
            ("t0",),
            [("t0", "t1"), ("t1", "t0")],
            {"t0": {"p": False, "x": True}, "t1": {"p": True, "x": False}},
        )
        u = UnrollingMap(src, fx("L"), {"t0": "a0", "t1": "a0"})
        assert not validate_unrolling_map(u, "x")

    def test_prop_mismatch_raises(self, fx):
        u = UnrollingMap(self._alternating_lasso(), fx("L"), {"t0": "a0", "t1": "a0"})
        with pytest.raises(KripkeError):
            validate_unrolling_map(u, "y")


class TestIsomorphic:
    def test_renaming(self, fx):
        m = fx("M")
        renamed = KripkeStructure(
            "M2",
            ("p",),
            ("c1", "c0"),
            ("c0",),
            [("c0", "c0"), ("c0", "c1"), ("c1", "c1")],
            {"c0": {"p": True}, "c1": {"p": True}},
        )
        assert isomorphic(m, renamed) is not None

    def test_rejects_shape_mismatch(self, fx):
        assert isomorphic(fx("L"), fx("M")) is None
        assert isomorphic(fx("V"), fx("Valpha")) is None

    def test_a_long_chain_of_binary_labels(self):
        """1100 states, state i labelled with i in binary over 11 propositions,
        against a renamed copy: deeper than the recursion limit."""
        n, props = 1100, tuple(f"b{j}" for j in range(11))

        def chain(prefix, last):
            states = [f"{prefix}{i}" for i in range(n)]
            trans = [(states[i], states[i + 1]) for i in range(n - 1)] + [(states[-1], states[last])]
            labels = {s: {b: bool(i >> j & 1) for j, b in enumerate(props)} for i, s in enumerate(states)}
            return KripkeStructure(prefix, props, states, states[:1], trans, labels)

        assert isomorphic(chain("s", n - 1), chain("t", n - 1)) == {f"s{i}": f"t{i}" for i in range(n)}
        assert isomorphic(chain("s", n - 1), chain("t", 0)) is None

    def test_against_every_permutation(self, rng):
        """On seeded structures of up to 6 states, against renamed copies with
        shuffled declarations, some with one transition redirected and some
        with the labels of two states swapped: a bijection is found iff one
        of the n! permutations preserves labels, transitions and initial
        states, and the one found does."""

        def preserves(k1, k2, image):
            return (all(k1.labels_of(s) == k2.labels_of(image[s]) for s in k1.states)
                    and sorted(image[s] for s in k1.init) == sorted(k2.init)
                    and sorted((image[s], image[t]) for s in k1.states for t in k1.successors(s))
                    == sorted((s, t) for s in k2.states for t in k2.successors(s)))

        found = 0
        for _ in range(150):
            k1 = rand_kripke(rng, 6)
            rename = {s: f"t{s[1:]}" for s in k1.states}
            trans = [(rename[s], rename[t]) for s in k1.states for t in k1.successors(s)]
            labels = {rename[s]: k1.labels_of(s) for s in k1.states}
            change = rng.randrange(3)
            if change == 1:
                j = rng.randrange(len(trans))
                trans[j] = (trans[j][0], rename[rng.choice(k1.states)])
            elif change == 2:
                a, b = rng.choice(list(labels)), rng.choice(list(labels))
                labels[a], labels[b] = labels[b], labels[a]
            declared = rng.sample(list(labels), k1.n)
            k2 = KripkeStructure("T", k1.props, declared, [rename[s] for s in k1.init], trans, labels)
            exists = any(preserves(k1, k2, dict(zip(k1.states, perm)))
                         for perm in itertools.permutations(k2.states))
            got = isomorphic(k1, k2)
            assert (got is not None) == exists
            if got is not None:
                found += 1
                assert sorted(got.values()) == sorted(k2.states) and preserves(k1, k2, got)
        assert 50 < found < 140

    def test_a_long_chain_with_one_label(self):
        """6000 states that all share one signature but the first and the
        last: a search depth starts at its signature's first unused
        candidate, so the search stays linear (quadratic when each depth
        rescanned the used ones: 4x the states took 16x the time)."""

        def chain(prefix, n):
            states = [f"{prefix}{i}" for i in range(n)]
            trans = [(states[i], states[i + 1]) for i in range(n - 1)] + [(states[-1], states[-1])]
            return KripkeStructure(prefix, ("p",), states, states[:1], trans, {states[-1]: {"p": True}})

        def best_time(n):
            pair, best = (chain("s", n), chain("t", n)), float("inf")
            for _ in range(3):
                start = time.perf_counter()
                got = isomorphic(*pair)
                best = min(best, time.perf_counter() - start)
            assert got == {f"s{i}": f"t{i}" for i in range(n)}
            return best

        assert best_time(6000) < 10 * best_time(1500)

    def test_a_long_chain_declared_in_reverse(self):
        """3000 states of one signature against a copy that declares them in
        reverse: each state's candidates are the successors of its
        predecessor's image, so the search stays linear (a scan of the
        signature's unused candidates made 2x the states take 4x the time)."""

        def chain(prefix, n, reverse):
            states = [f"{prefix}{i}" for i in range(n)]
            trans = [(states[i], states[i + 1]) for i in range(n - 1)] + [(states[-1], states[-1])]
            declared = states[::-1] if reverse else states
            return KripkeStructure(prefix, ("p",), declared, states[:1], trans, {states[-1]: {"p": True}})

        def best_time(n):
            pair, best = (chain("s", n, False), chain("t", n, True)), float("inf")
            for _ in range(3):
                start = time.perf_counter()
                got = isomorphic(*pair)
                best = min(best, time.perf_counter() - start)
            assert got == {f"s{i}": f"t{i}" for i in range(n)}
            return best

        assert best_time(3000) < 10 * best_time(750)


# ---------------------------------------------------------------------------
# Index lists against the name-level oracles


def rand_parts(rng, max_states=40, props=("p", "q"), maybe=0.0, name="D"):
    """Constructor arguments of a seeded structure of 1..max_states states:
    duplicate transitions, transitions in shuffled order, a share `maybe` of
    labels maybe (bools and T3/F3 mixed), some labels left out."""
    n = rng.randint(1, max_states)
    states = [f"s{i}" for i in range(n)]
    rng.shuffle(states)
    trans = []
    for s in states:
        trans += [(s, t) for t in rng.sample(states, rng.randint(1, min(n, 4)))]
    trans += rng.choices(trans, k=rng.randint(0, n))
    rng.shuffle(trans)
    labels = {}
    for s in rng.sample(states, rng.randint(0, n)):
        labels[s] = {p: M3 if rng.random() < maybe else rng.choice((True, False, T3, F3))
                     for p in props if rng.random() < 0.8}
    init = rng.sample(states, rng.randint(1, min(n, 3)))
    init += rng.choices(init, k=rng.randint(0, 2))
    return name, props, states, init, trans, labels


def kr_text(rng, parts):
    """A .kr text of the parts, with comments, blank lines and, sometimes,
    the trans: lines before the state lines."""
    name, props, states, init, trans, labels = parts
    state_lines = []
    for s in states:
        items = []
        for p, v in labels.get(s, {}).items():
            items.append(f"{p}=M" if v is M3 else p if v in (True, T3) else f"-{p}")
        state_lines.append(f"state {s}:" + "".join(f" {i}" for i in items))
    trans_lines = [f"trans: {s} {t}" + ("  # again" if rng.random() < 0.1 else "") for s, t in trans]
    body = trans_lines + state_lines if rng.random() < 0.5 else state_lines + trans_lines
    head = [f"kripke {name}", "# a comment", "props: " + " ".join(props), "", "init: " + " ".join(init)]
    rng.shuffle(head)
    return "\n".join(head + body) + "\n"


def assert_same(got, want):
    assert type(got) is KripkeStructure
    assert (got.name, got.props, got.states, got.n, got.init) == (want.name, want.props, want.states, want.n, want.init)
    assert got.init_mask == want.init_mask and got.full_mask == want.full_mask
    assert got.succ == want.succ and got.trans == want.trans
    assert got.predecessors() == want.predecessors()
    for p in want.props:
        assert got.true_mask(p) == want.true_mask(p) and got.maybe_mask(p) == want.maybe_mask(p)
    assert got.is_classical == want.is_classical
    assert render_kripke(got) == render_kripke(want)
    assert got == want and hash(got) == hash(want)
    assert got.succ_masks == want.succ_masks


def raised(fn, *args):
    try:
        fn(*args)
    except KripkeError as e:
        return str(e)
    return None


class TestIndexLists:
    def test_constructor_and_parser_match_the_oracles(self, rng):
        for trial in range(150):
            parts = rand_parts(rng, maybe=0.3 if trial % 2 else 0.0)
            want = OracleKripkeStructure(*parts)
            assert_same(KripkeStructure(*parts), want)
            text = kr_text(rng, parts)
            got = parse_kripke(text)
            assert_same(got, oracle_parse_kripke(text))
            assert_same(got, want)

    def test_constructions_match_the_oracles(self, rng):
        for trial in range(60):
            maybe = 0.3 if trial % 2 else 0.0
            k1 = KripkeStructure(*rand_parts(rng, 12, maybe=maybe, name="A"))
            k2 = KripkeStructure(*rand_parts(rng, 5, props=("r",), maybe=maybe, name="B"))
            o1, o2 = OracleKripkeStructure(*_parts_of(k1)), OracleKripkeStructure(*_parts_of(k2))
            assert_same(compose_sync(k1, k2), oracle_compose_sync(o1, o2))
            assert_same(compose_sync(k2, chi()), oracle_compose_sync(o2, chi()))
            for m in (1, 2, 3):
                assert_same(duplicate_m(k2, m), oracle_duplicate_m(o2, m))
            assert_same(duplicate_m(k1, 2), oracle_duplicate_m(o1, 2))
            inits = rng.sample(k1.states, rng.randint(1, k1.n))
            assert_same(restrict_init(k1, inits), oracle_restrict_init(o1, inits))
            variants, eager = x_variants(k2, "w"), oracle_x_variants(o2, "w")
            for mask in range(len(variants)):
                assert_same(variants[mask], eager[mask])
            big = KripkeStructure(*rand_parts(rng, 40, maybe=maybe, name="C"))
            mask = rng.getrandbits(big.n)
            want = OracleKripkeStructure(
                f"C^{mask + 1}", big.props + ("w",), big.states, big.init, big.trans,
                {s: {**big.labels_of(s), "w": bool(mask >> i & 1)} for i, s in enumerate(big.states)})
            assert_same(x_variants(big, "w")[mask], want)

    def test_constructions_share_what_does_not_change(self, fx):
        k = fx("M")
        r = restrict_init(k, ("b1",))
        assert r.succ is k.succ and r.states is k.states
        assert r.predecessors() is not None and x_variants(r, "w")[0].predecessors() is r.predecessors()
        with pytest.raises(KripkeError, match="undeclared initial state 'zz'"):
            restrict_init(k, ("zz",))
        with pytest.raises(KripkeError, match="empty set of initial states"):
            restrict_init(k, ())

    def test_label_copies_and_equality_match_the_name_level(self, rng):
        """remove_prop, lift_kx, reachable_part and labeling_completions copy
        label masks; == and structurally_equal compare masks and successor
        lists, and see one changed label or transition exactly as the
        name-level transitions and labels do."""
        for trial in range(60):
            k = KripkeStructure(*rand_parts(rng, 12, maybe=0.3 if trial % 2 else 0.0))
            name, props, states, init, trans, labels = _parts_of(k)
            assert_same(remove_prop(k, "q"), OracleKripkeStructure(
                name, ("p",), states, init, trans, {s: {"p": v["p"]} for s, v in labels.items()}))
            if k.is_classical:
                assert_same(lift_kx(k, "x"), OracleKripkeStructure(
                    f"{name}_x", props + ("x",), states, init, trans, {s: {**v, "x": M3} for s, v in labels.items()}))
            # a copy that init does not reach, wired into k, its states between k's
            wired = [*trans, *((f"u{s}", f"u{t}") for s, t in trans), *((f"u{s}", s) for s in states[::2])]
            both = KripkeStructure(name, props, [u for s in states for u in (f"u{s}", s)], init, wired,
                                   {**labels, **{f"u{s}": v for s, v in labels.items()}})
            seen = set(init)
            todo = list(seen)
            while todo:
                for t in both.successors(todo.pop()):
                    if t not in seen:
                        seen.add(t)
                        todo.append(t)
            kept = [s for s in both.states if s in seen]
            assert_same(reachable_part(both), OracleKripkeStructure(
                name, props, kept, init, [(s, t) for s, t in wired if s in seen], {s: labels[s] for s in kept}))
            slots = [(s, p) for s in states for p in props if labels[s][p] is M3]
            completions = labeling_completions(k, bound=len(slots))
            for mask in {0, len(completions) - 1, rng.randrange(len(completions))}:
                resolved = {s: dict(v) for s, v in labels.items()}
                for j, (s, p) in enumerate(slots):
                    resolved[s][p] = T3 if mask >> j & 1 else F3
                assert_same(completions[mask], OracleKripkeStructure(
                    f"{name}#{mask + 1}", props, states, init, trans, resolved))
            s, p = rng.choice(states), rng.choice(props)
            flipped = dict(labels, **{s: dict(labels[s], **{p: F3 if labels[s][p] is T3 else T3})})
            assert k != KripkeStructure(name, props, states, init, trans, flipped)
            extra = [(s, t) for t in states if (s, t) not in k.trans][:1]
            assert (k == KripkeStructure(name, props, states, init, [*trans, *extra], labels)) == (not extra)
            renamed = KripkeStructure("E", props, states, init, reversed(trans), labels)
            assert structurally_equal(k, renamed) and k != renamed
            assert not structurally_equal(k, KripkeStructure(name, props[::-1] + ("r",), states, init, trans, labels))

    def test_colliding_product_names_are_rejected(self):
        # (a,b)x(c) and (a)x(b,c) are both named (a,b,c)
        k1 = KripkeStructure("K1", ("p",), ("a", "a,b"), ("a",), [("a", "a"), ("a,b", "a")], {})
        k2 = KripkeStructure("K2", ("q",), ("c", "b,c"), ("c",), [("c", "c"), ("b,c", "c")], {})
        assert raised(compose_sync, k1, k2) == raised(oracle_compose_sync, k1, k2) == "K1||K2: duplicate state names"


def _parts_of(k):
    return k.name, k.props, k.states, k.init, k.trans, {s: k.labels_of(s) for s in k.states}


MALFORMED = [
    ("props: p\ninit: s\nstate s: p\ntrans: s s\n", "missing 'kripke NAME' header"),
    ("kripke\nprops: p\n", "line 1: missing structure name"),
    ("kripke K\nstate : p\n", "line 2: missing state name"),
    ("kripke K\nstate s:\nstate s: p\n", "line 3: duplicate state 's'"),
    ("kripke K\ntrans: s\n", "line 2: expected 'trans: FROM TO'"),
    ("kripke K\ntrans: s t u\n", "line 2: expected 'trans: FROM TO'"),
    ("kripke K\nlabel s p\n", "line 2: unrecognized directive 'label'"),
    ("kripke K\nprops: p p\ninit: s\nstate s:\ntrans: s s\n", "K: duplicate proposition names"),
    ("kripke K\nprops: p\ninit:\nstate s:\ntrans: s s\n", "K: empty set of initial states"),
    ("kripke K\nprops: p\ninit: s t\nstate s:\ntrans: s s\n", "K: undeclared initial state 't'"),
    ("kripke K\nprops: p\ninit: s\nstate s:\ntrans: s s\ntrans: s t\n", "K: transition on undeclared state ('s', 't')"),
    ("kripke K\nprops: p\ninit: s\nstate s:\nstate t:\ntrans: s t\n", "K: state 't' has no outgoing transition"),
    ("kripke K\nprops: p\ninit: s\nstate s: q\ntrans: s s\n", "K: undeclared proposition 'q' on state 's'"),
    # several defects: the first in the order of the checks is reported
    ("kripke K\nprops: p p\ninit: z\nstate s: q\ntrans: s y\n", "K: duplicate proposition names"),
    ("kripke K\nprops: p\ninit: z\nstate s: q\ntrans: s y\n", "K: undeclared initial state 'z'"),
    ("kripke K\nprops: p\ninit: s\nstate s: q\nstate t:\ntrans: y s\ntrans: s z\n", "K: transition on undeclared state ('y', 's')"),
    ("kripke K\nprops: p\ninit: s\nstate s: q\nstate t:\ntrans: s s\n", "K: state 't' has no outgoing transition"),
    ("kripke K\ntrans: s\nbogus\n", "line 2: expected 'trans: FROM TO'"),
    ("trans: s t u\nprops: p\n", "line 1: expected 'trans: FROM TO'"),
]


class TestMalformed:
    @pytest.mark.parametrize("text,message", MALFORMED)
    def test_message_and_first_error_unchanged(self, text, message):
        assert raised(parse_kripke, text) == raised(oracle_parse_kripke, text) == message

    def test_random_defects_report_the_oracle_error(self, rng):
        defects = [
            lambda ls: ls.insert(rng.randrange(len(ls) + 1), "trans: s0"),
            lambda ls: ls.insert(rng.randrange(len(ls) + 1), "trans: s0 nowhere"),
            lambda ls: ls.insert(rng.randrange(len(ls) + 1), "trans: nowhere s0"),
            lambda ls: ls.insert(rng.randrange(len(ls) + 1), "state s0: p"),
            lambda ls: ls.insert(rng.randrange(len(ls) + 1), "state stray:"),
            lambda ls: ls.insert(rng.randrange(len(ls) + 1), "state s1: nosuch"),
            lambda ls: ls.insert(rng.randrange(len(ls) + 1), "init: s0 ghost"),
            lambda ls: ls.insert(rng.randrange(len(ls) + 1), "init:"),
            lambda ls: ls.insert(rng.randrange(len(ls) + 1), "props: p p"),
            lambda ls: ls.insert(rng.randrange(len(ls) + 1), "junk here"),
            lambda ls: ls.insert(rng.randrange(len(ls) + 1), "state :"),
            lambda ls: ls.insert(rng.randrange(len(ls) + 1), "kripke"),
            lambda ls: ls.remove(next((x for x in ls if x.startswith("kripke")), ls[0])),
            lambda ls: ls.remove(next((x for x in ls if x.startswith("trans:")), ls[0])),
        ]
        failures = 0
        for _ in range(300):
            parts = rand_parts(rng, 8, maybe=0.2)
            lines = kr_text(rng, parts).splitlines()
            for defect in rng.sample(defects, rng.randint(1, 3)):
                defect(lines)
            text = "\n".join(lines) + "\n"
            want = raised(oracle_parse_kripke, text)
            assert raised(parse_kripke, text) == want, text
            failures += want is not None
        assert failures > 250

    def test_constructor_errors_in_the_oracle_order(self, rng):
        good = ("K", ("p", "q"), ("a", "b"), ("a",), [("a", "b"), ("b", "a")], {"a": {"p": True}})
        edits = [
            (2, ("a", "b", "a")),
            (1, ("p", "p")),
            (3, ()),
            (3, ("a", "zz")),
            (4, [("a", "b"), ("b", "zz"), ("zz", "a")]),
            (4, [("a", "b")]),
            (5, {"a": {"p": True}, "ghost": {}}),
            (5, {"b": {"r": M3}}),
        ]
        for _ in range(200):
            parts = list(good)
            for slot, value in rng.sample(edits, rng.randint(1, 4)):
                parts[slot] = value
            want = raised(OracleKripkeStructure, *parts)
            assert want is not None and raised(KripkeStructure, *parts) == want, parts


class TestLargeChain:
    def test_a_long_chain_checks_without_successor_masks(self):
        n = 100_000
        lines = ["kripke C", "props: p", "init: s0"]
        lines += [f"state s{i}:" for i in range(n - 1)] + [f"state s{n - 1}: p"]
        lines += [f"trans: s{i} s{min(i + 1, n - 1)}" for i in range(n)]
        k = parse_kripke("\n".join(lines) + "\n")
        assert k.n == n and k.succ[n - 2] == [n - 1] and k.succ[n - 1] == [n - 1]
        assert check_ctl_star(k, F.parse_formula("EF p"))
        assert not check_ctl_star(k, F.parse_formula("EG !p"))
        assert "succ_masks" not in vars(k) and "trans" not in vars(k)
