from collections.abc import Sequence

import pytest

from vacmc.bisim import bisimilar_over
from vacmc.errors import KripkeError
from vacmc.kleene import F3, T3
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
    structurally_equal,
    validate_unrolling_map,
    x_variants,
)

from helpers import oracle_x_variants, rand_kripke, shaped_kripke


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
