import sys

import pytest

from vacmc import formula as F
from vacmc.errors import FormulaSyntaxError
from vacmc.formula import (
    Analysis,
    Polarity,
    analyze,
    atoms,
    count_occurrences,
    formula_size,
    nnf,
    occurrence_polarity,
    parse_formula,
    render_formula,
    substitute,
)
from vacmc.kripke import KripkeStructure
from vacmc.mc import check_ctl_star
from vacmc.vacuity import enumerate_structures

from helpers import proper_subformulas, rand_actl_star, rand_ctl, rand_path

P4 = "AG ((AX p) | (AX !p))"


def p(text):
    return parse_formula(text)


class TestParse:
    def test_p4_shape(self):
        f = p(P4)
        assert f == F.PathA(
            F.Globally(
                F.Or(F.PathA(F.Next(F.Atom("p"))), F.PathA(F.Next(F.Not(F.Atom("p")))))
            )
        )

    def test_bracket_until(self):
        assert p("A[p U q]") == F.PathA(F.Until(F.Atom("p"), F.Atom("q")))
        assert p("E[p R q]") == F.PathE(F.Release(F.Atom("p"), F.Atom("q")))

    def test_precedence(self):
        assert p("!p & q | r -> s") == F.Implies(
            F.Or(F.And(F.Not(F.Atom("p")), F.Atom("q")), F.Atom("r")), F.Atom("s")
        )
        # U binds tighter than &, right-associatively
        assert p("A(p U q & r)") == F.PathA(F.And(F.Until(F.Atom("p"), F.Atom("q")), F.Atom("r")))
        assert p("A(p U q U r)") == F.PathA(F.Until(F.Atom("p"), F.Until(F.Atom("q"), F.Atom("r"))))
        assert p("a -> b -> c") == F.Implies(F.Atom("a"), F.Implies(F.Atom("b"), F.Atom("c")))

    def test_set_atom(self):
        f = p("{s1,s0}@K")
        assert f == F.SetAtom("K", ("s0", "s1"))
        assert render_formula(f) == "{s0,s1}@K"

    def test_quantifier(self):
        f = p("forall x . AG (x -> AX x)")
        assert isinstance(f, F.ForallProp) and f.var == "x"
        g = p("exists y . EF y")
        assert isinstance(g, F.ExistsProp) and g.var == "y"

    def test_syntax_error_carries_position(self):
        with pytest.raises(FormulaSyntaxError) as e:
            p("AG (p ->")
        assert e.value.pos is not None

    def test_quantifier_not_at_root(self):
        with pytest.raises(FormulaSyntaxError, match="root"):
            p("AG (forall x . x)")

    def test_unknown_operator(self):
        with pytest.raises(FormulaSyntaxError):
            p("AQ p")
        with pytest.raises(FormulaSyntaxError):
            p("p ? q")


class TestDeepText:
    """Formula texts 10,000 deep (3000 for A[..]) parse at the default recursion limit."""

    N = 10_000
    TEXTS = {
        "AX": "AX " * N + "p",
        "parentheses": "(" * N + "p" + ")" * N,
        "implication chain": " -> ".join(["p"] * N),
        "negations": "!" * N + "p",
        "A[.. U ..]": "A[" * 3000 + "p" + " U q]" * 3000,
    }

    @pytest.mark.parametrize("name", TEXTS)
    def test_parses_renders_and_round_trips(self, name):
        assert sys.getrecursionlimit() <= 1000
        f = p(self.TEXTS[name])
        assert parse_formula(render_formula(f)) == f

    def test_shapes(self):
        f = p(self.TEXTS["A[.. U ..]"])
        for _ in range(3000):
            assert isinstance(f, F.PathA) and f.child.right == F.Atom("q")
            f = f.child.left
        assert f == F.Atom("p")
        assert p(self.TEXTS["parentheses"]) == F.Atom("p")
        assert render_formula(p(self.TEXTS["negations"])) == self.TEXTS["negations"]
        assert render_formula(p(self.TEXTS["implication chain"])) == self.TEXTS["implication chain"]


class TestRender:
    def test_p4_exact(self):
        assert render_formula(p(P4)) == P4

    def test_constants(self):
        assert render_formula(F.TRUE) == "true"
        assert render_formula(F.FALSE) == "false"

    def test_roundtrip_random(self, rng):
        for _ in range(400):
            f = rand_ctl(rng, ("p", "q", "r"), 4)
            assert parse_formula(render_formula(f)) == f
        for _ in range(200):
            f = F.PathA(rand_path(rng, ("p", "q"), 4))
            assert parse_formula(render_formula(f)) == f

    def test_roundtrip_quantified_and_setatoms(self, rng):
        for text in (
            "forall x . AG ((AX x) | (AX !x))",
            "exists x . E[x U {s0,s1}@M]",
            "A[{a0}@L R p] -> !E(G !q)",
        ):
            f = p(text)
            assert parse_formula(render_formula(f)) == f


class TestSubstitute:
    def test_paper_example(self):
        assert substitute(p(P4), F.Atom("p"), F.Atom("q")) == p("AG ((AX q) | (AX !q))")

    def test_identity(self):
        f = p("AG (p -> AF (p & q))")
        assert substitute(f, p("AF (p & q)"), p("AF (p & q)")) == f

    def test_two_occurrences(self):
        f = p("AG (p -> AF (p & q))")
        assert count_occurrences(f, F.Atom("p")) == 2
        assert substitute(f, F.Atom("p"), F.Atom("x")) == p("AG (x -> AF (x & q))")

    def test_gone_after_substitution(self):
        f = p("AG (p -> AF (p & q))")
        out = substitute(f, F.Atom("p"), F.TRUE)
        assert count_occurrences(out, F.Atom("p")) == 0

    def test_maximal_occurrence(self):
        # p inside the replaced subformula is not separately replaced
        f = p("EF (p & q)")
        out = substitute(f, p("p & q"), F.Atom("r"))
        assert out == p("EF r")


class TestNnf:
    def test_de_morgan(self):
        assert nnf(p("!(a & b)")) == p("!a | !b")
        assert render_formula(nnf(p("!(a & b)"))) == "!a | !b"

    def test_paper_dualities(self):
        assert nnf(p("! AG (p -> AX p)")) == p("EF (p & EX !p)")
        assert nnf(p("AG p")) == p("AG p")
        assert nnf(p("!A[p U q]")) == p("E[!p R !q]")
        assert nnf(p("!(F p)")) == p("G !p")

    def test_deep_formula_past_the_recursion_limit(self):
        phi = F.Atom("p")
        for _ in range(1500):
            phi = F.PathA(F.Next(phi))
        got = nnf(F.Not(phi))
        for _ in range(1500):
            assert isinstance(got, F.PathE) and isinstance(got.child, F.Next)
            got = got.child.child
        assert got == F.Not(F.Atom("p"))

    def test_render_and_is_ctl_past_the_recursion_limit(self):
        phi = F.Atom("p")
        for _ in range(1000):
            phi = F.PathA(F.Next(phi))
        assert render_formula(phi) == "AX " * 1000 + "p"
        assert F.is_ctl(phi) and not F.is_ctl(F.PathA(F.Not(phi)))
        deep_not = F.Atom("p")
        for _ in range(1000):
            deep_not = F.Not(deep_not)
        assert render_formula(F.PathE(F.Future(deep_not))) == "EF " + "!" * 1000 + "p"

    def test_negations_atomic_only(self, rng):
        def ok(f):
            if isinstance(f, F.Not):
                return isinstance(f.child, (F.Atom, F.SetAtom))
            return all(ok(c) for c in f.children())

        for _ in range(200):
            assert ok(nnf(rand_ctl(rng, ("p", "q"), 4)))

    def test_equivalence_oracle(self, rng):
        # check nnf(phi) against phi on every <=2-state structure over {p}
        structures = list(enumerate_structures(("p",), 2))
        for _ in range(40):
            phi = rand_ctl(rng, ("p",), 4)
            psi = nnf(phi)
            for k in structures:
                assert check_ctl_star(k, phi) == check_ctl_star(k, psi)


class TestPolarity:
    def test_paper_examples(self):
        assert occurrence_polarity(p("AG (p -> AF q)"), F.Atom("q")) is Polarity.POSITIVE
        assert occurrence_polarity(p("AG (p -> AF q)"), F.Atom("p")) is Polarity.NEGATIVE
        assert occurrence_polarity(p("AG (p -> AF (p & q))"), F.Atom("p")) is Polarity.MIXED
        assert occurrence_polarity(p(P4), F.Atom("q")) is Polarity.ABSENT

    def test_double_negation(self):
        assert occurrence_polarity(p("!EX !p"), F.Atom("p")) is Polarity.POSITIVE
        assert occurrence_polarity(p("!EX p"), F.Atom("p")) is Polarity.NEGATIVE

    def test_negation_flips(self, rng):
        flip = {
            Polarity.POSITIVE: Polarity.NEGATIVE,
            Polarity.NEGATIVE: Polarity.POSITIVE,
            Polarity.MIXED: Polarity.MIXED,
            Polarity.ABSENT: Polarity.ABSENT,
        }
        for _ in range(200):
            phi = rand_ctl(rng, ("p", "q"), 4)
            pol = occurrence_polarity(phi, F.Atom("p"))
            assert occurrence_polarity(F.Not(phi), F.Atom("p")) is flip[pol]


class TestAnalyze:
    def test_actl_star(self):
        a = analyze(p("AG (p -> AF q)"), p("AF q"))
        assert a.is_actl_star and a.is_ctl and a.universal_in

    def test_ectl_star(self):
        a = analyze(p("EF (p & EG !q)"), F.Atom("p"))
        assert a.is_ectl_star and a.existential_in and not a.is_actl_star

    def test_p2_universal_in_x(self):
        a = analyze(p("AG ((AX x) | (AX !x))"), F.Atom("x"))
        assert a.universal_in and not a.existential_in

    def test_ltl(self):
        assert analyze(p("A(G (p -> F q))")).is_ltl
        assert not analyze(p("AG (p -> AF q)")).is_ltl

    def test_ctl_flag(self):
        assert analyze(p("AG A[p U q]")).is_ctl
        assert not analyze(p("A(G (p U q))")).is_ctl

    def test_size_node_count(self):
        assert formula_size(p("AG (p -> AX p)")) == 6
        assert formula_size(F.Atom("p")) == 1
        assert formula_size(p(P4)) >= 1

    def test_implies_seen_through(self):
        # p occurs negatively through ->, still universal-in under AG only
        a = analyze(p("AG (p -> AX p)"), F.Atom("p"))
        assert a.universal_in

    def test_atoms(self):
        assert atoms(p("AG (p -> AF (p & q))")) == {"p", "q"}

    def test_analysis_type(self):
        assert isinstance(analyze(p("AG p")), Analysis)

    def test_fragment_implies_scope(self, rng):
        # a marker in place of psi can only remove quantifiers: ACTL* puts every
        # occurrence under A alone, ECTL* under E alone
        seen = {"actl": 0, "ectl": 0}
        for _ in range(400):
            phi = rng.choice((
                lambda: rand_ctl(rng, ("p", "q"), 4),
                lambda: rng.choice((F.PathA, F.PathE))(rand_path(rng, ("p", "q"), 3)),
                lambda: rand_actl_star(rng, ("p", "q"), 3),
                lambda: nnf(F.Not(rand_actl_star(rng, ("p", "q"), 3))),
            ))()
            psi = rng.choice(proper_subformulas(phi))
            a = analyze(phi, psi)
            seen["actl"] += a.is_actl_star
            seen["ectl"] += a.is_ectl_star
            assert a.universal_in or not a.is_actl_star, render_formula(phi)
            assert a.existential_in or not a.is_ectl_star, render_formula(phi)
        assert min(seen.values()) >= 100


class TestDeepPasses:
    """Occurrence, substitution, equality and fragment passes past the recursion limit."""

    @staticmethod
    def deep(leaf, depth=2000):
        f = F.Atom(leaf)
        for i in range(depth):
            f = F.Not(f) if i % 2 else F.PathA(F.Next(f))
        return f

    def test_occurrences_and_polarity(self):
        phi, pa = self.deep("p"), F.Atom("p")
        assert F.count_occurrences(phi, pa) == 1
        assert F.count_occurrences(F.And(phi, F.Implies(phi, pa)), pa) == 3
        assert F.occurrence_polarity(phi, pa) is Polarity.POSITIVE
        assert F.occurrence_polarity(F.Not(phi), pa) is Polarity.NEGATIVE
        assert F.occurrence_polarity(F.Implies(phi, phi), pa) is Polarity.MIXED

    def test_substitute_and_equality(self):
        phi = self.deep("p")
        assert F.substitute(phi, F.Atom("p"), F.Atom("q")) == self.deep("q")
        assert phi == self.deep("p") and phi != self.deep("q") and phi != self.deep("p", 1999)
        assert F.substitute(F.Or(phi, F.Atom("r")), self.deep("p"), F.TRUE) == F.Or(F.TRUE, F.Atom("r"))

    def test_atoms_and_fragments(self):
        phi = self.deep("p")
        assert F.atoms(F.And(phi, F.Atom("q"))) == {"p", "q"}
        assert not F.is_pure_path(phi)
        path = F.Atom("p")
        for _ in range(2000):
            path = F.Next(F.Not(path))
        assert F.is_pure_path(path)
        ax = F.Atom("p")
        for _ in range(2000):
            ax = F.PathA(F.Next(ax))
        an = F.analyze(ax, F.Atom("p"))
        assert an.is_ctl and an.is_actl_star and not an.is_ectl_star
        assert an.universal_in and not an.existential_in
        an = F.analyze(F.Not(ax), F.Atom("p"))
        assert not an.is_actl_star and an.is_ectl_star
        assert not an.universal_in and an.existential_in
        an = F.analyze(phi, F.Atom("p"))  # A and E alternate once negations are pushed in
        assert an.is_ctl and not an.is_actl_star and not an.is_ectl_star
        assert not an.universal_in and not an.existential_in
