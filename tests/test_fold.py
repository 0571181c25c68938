"""formula.fold, the one bottom-up pass: the passes built on it keep their
laws on random formulas and run at any depth."""

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from vacmc import formula as F
from vacmc.errors import EvalError, VacmcError
from vacmc.kripke import parse_kripke
from vacmc.mc import eval_mask
from vacmc.qctl import eval_tree, pathify
from vacmc.reductions import PropOrdering, f_translate_ctl, g_translate_ctl_star
from vacmc.vacuity import prop_simplify

FIXTURES = ("O", "P", "Q", "U", "V", "Valpha")  # every fixture over p and q
_UNARY = (F.Not, F.Next, F.Future, F.Globally, F.PathA, F.PathE)
_BINARY = (F.And, F.Or, F.Implies, F.Until, F.Release)
_TEMPORAL = (F.Next, F.Future, F.Globally, F.Until, F.Release)

_FORMULAS = st.recursive(
    st.sampled_from([F.Atom("p"), F.Atom("q"), F.TRUE, F.FALSE]),
    lambda inner: st.tuples(st.sampled_from(_UNARY), inner).map(lambda t: t[0](t[1]))
    | st.tuples(st.sampled_from(_BINARY), inner, inner).map(lambda t: t[0](t[1], t[2])),
    max_leaves=8,
)


_MARK = F.Atom("marker")


def _paths_to(phi, psi):
    """(parity of the negations above, node types above) for each maximal
    occurrence of psi in phi; the left side of -> counts as a negation."""
    out, todo = [], [(phi, 0, ())]
    while todo:
        f, parity, above = todo.pop()
        if f == psi:
            out.append((parity, above))
            continue
        for i, c in enumerate(f.children()):
            flip = isinstance(f, F.Not) or (isinstance(f, F.Implies) and i == 0)
            todo.append((c, parity ^ flip, above + (type(f),)))
    return out


def _kinds(phi, kinds):
    return [f for f in F.subformulas(phi) if isinstance(f, kinds)]


def _state(phi):
    """phi, or E phi when phi is a path formula; small enough for a closure automaton."""
    assume(len(_kinds(phi, _TEMPORAL)) <= 10)
    return phi if F.is_state_formula(phi) else F.PathE(phi)


class TestFoldLaws:
    SETTINGS = dict(max_examples=300, database=None, deadline=None)

    @seed(20250810)
    @settings(**SETTINGS)
    @given(_FORMULAS)
    def test_nnf_agrees_with_the_formula(self, fx, phi):
        phi = _state(phi)
        n = F.nnf(phi)
        for name in FIXTURES:
            k = fx(name)
            assert eval_mask(k, n) == eval_mask(k, phi), (name, F.render_formula(phi))

    @seed(20250810)
    @settings(**SETTINGS)
    @given(_FORMULAS)
    def test_nnf_negates_atoms_only(self, phi):
        for polarity in (phi, F.Not(phi), F.Implies(phi, F.Not(phi))):
            n = F.nnf(polarity)
            assert not _kinds(n, F.Implies)
            assert all(isinstance(f.child, (F.Atom, F.SetAtom)) for f in _kinds(n, F.Not))

    @seed(20250810)
    @settings(**SETTINGS)
    @given(_FORMULAS, _FORMULAS, st.data())
    def test_substitute_replaces_every_maximal_occurrence(self, phi, chi, data):
        psi = data.draw(st.sampled_from(sorted(F.subformulas(phi), key=F.render_formula)))
        if psi not in F.subformulas(chi):
            assert F.count_occurrences(F.substitute(phi, psi, chi), psi) == 0
        assert F.count_occurrences(F.substitute(phi, psi, chi), chi) >= F.count_occurrences(phi, psi)
        if F.count_occurrences(chi, psi) == 0:
            assert F.substitute(chi, psi, phi) == chi

    @seed(20250810)
    @settings(**SETTINGS)
    @given(_FORMULAS)
    def test_pathify_leaves_no_path_quantifier(self, phi):
        assert not _kinds(pathify(phi), (F.PathA, F.PathE))
        assert pathify(phi) == pathify(pathify(phi))

    @seed(20250810)
    @settings(**SETTINGS)
    @given(_FORMULAS)
    def test_parse_inverts_render(self, phi):
        assert F.parse_formula(F.render_formula(phi)) == phi

    @seed(20250810)
    @settings(**SETTINGS)
    @given(_FORMULAS, st.data())
    def test_occurrence_views_keep_their_definitions(self, phi, data):
        psi = data.draw(st.sampled_from(sorted(F.subformulas(phi), key=F.render_formula) + [F.Atom("r")]))
        marked = F.substitute(phi, psi, _MARK)
        assert F.count_occurrences(phi, psi) == len(_paths_to(marked, _MARK))
        parities = {parity for parity, _ in _paths_to(phi, psi)}
        expected = {frozenset(): F.Polarity.ABSENT, frozenset({0}): F.Polarity.POSITIVE,
                    frozenset({1}): F.Polarity.NEGATIVE, frozenset({0, 1}): F.Polarity.MIXED}
        assert F.occurrence_polarity(phi, psi) is expected[frozenset(parities)]
        an = F.analyze(phi, psi)
        # scope: the marker lies outside every E (or A) of nnf(phi[psi <- marker])
        scopes = [kinds for _, kinds in _paths_to(F.nnf(marked), _MARK)]
        assert an.universal_in == all(F.PathE not in kinds for kinds in scopes)
        assert an.existential_in == all(F.PathA not in kinds for kinds in scopes)

    def test_memo_shares_repeated_subterms(self):
        calls = []

        def combine(f, parts):
            calls.append(f)
            return F._rebuild(f, parts)

        p = F.PathA(F.Next(F.Atom("p")))
        phi = F.And(F.Or(p, F.PathA(F.Next(F.Atom("p")))), p)
        assert F.fold(phi, F.Formula.children, combine) == phi
        assert calls == [F.Atom("p"), F.Next(F.Atom("p")), p, F.Or(p, p), phi]
        memo = {p: F.TRUE}
        assert F.fold(phi, F.Formula.children, F._rebuild, memo) == F.And(F.Or(F.TRUE, F.TRUE), F.TRUE)
        assert memo[phi] == F.And(F.Or(F.TRUE, F.TRUE), F.TRUE)


class TestDeepFormulas:
    """Depth 5000, built through the API, well past the recursion limit."""

    DEPTH = 5000
    O12 = PropOrdering({"p": 1, "q": 2})

    @classmethod
    def ax(cls, leaf):
        for _ in range(cls.DEPTH):
            leaf = F.PathA(F.Next(leaf))
        return leaf

    @classmethod
    def xs(cls, leaf):
        for _ in range(cls.DEPTH):
            leaf = F.Next(leaf)
        return leaf

    def test_ctl_passes(self, fx):
        p, k = F.Atom("p"), fx("U")
        phi = self.ax(p)
        assert pathify(phi) == self.xs(p)
        here = F.SetAtom(k.name, k.names_of(k.true_mask("p")), ref=k)
        assert prop_simplify(phi, k, selector=[p]) == self.ax(here)
        assert F.atoms(f_translate_ctl(phi, self.O12)) == {"z"}
        assert F.atoms(g_translate_ctl_star(phi, self.O12)) == {"z"}
        n = F.nnf(F.Not(phi))
        assert not _kinds(n, F.PathA) and len(_kinds(n, F.PathE)) == self.DEPTH
        assert F.substitute(phi, p, F.Atom("x")) == self.ax(F.Atom("x"))
        an = F.analyze(phi, p)
        assert an.is_ctl and an.is_actl_star and an.universal_in and an.size == 2 * self.DEPTH + 1

    def test_path_passes(self, fx):
        p, q, k = F.Atom("p"), F.Atom("q"), fx("U")
        body = F.And(self.xs(p), F.Future(q))
        phi = F.PathE(body)
        assert pathify(phi) == body
        here = F.SetAtom(k.name, k.names_of(k.true_mask("q")), ref=k)
        assert prop_simplify(phi, k, selector=[q]) == F.PathE(F.And(self.xs(p), F.Future(here)))
        g = g_translate_ctl_star(phi, self.O12)
        assert F.atoms(g) == {"z"} and len(_kinds(g, F.Next)) >= self.DEPTH
        with pytest.raises(EvalError, match="defined for CTL"):
            f_translate_ctl(phi, self.O12)
        assert F.nnf(F.Not(phi)) == F.PathA(F.Or(self.xs(F.Not(p)), F.Globally(F.Not(q))))
        assert F.substitute(phi, q, p) == F.PathE(F.And(self.xs(p), F.Future(p)))
        an = F.analyze(phi, q)
        assert not an.is_ctl and an.is_ectl_star and an.existential_in and not an.universal_in

    def test_tree_semantics_hits_the_tableau_cap(self):
        det = parse_kripke("kripke D\nprops: p\ninit: s\nstate s: p\ntrans: s s\n")
        q = F.ForallProp("x", self.ax(F.Or(F.Atom("p"), F.Atom("x"))))
        with pytest.raises(VacmcError, match="closure too large"):
            eval_tree(det, q)
