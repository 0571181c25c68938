"""3-valued structures: compositional CTL checking, refinement, completions,
thorough semantics on K_x, and the vacuity reduction through it.

Transitions stay 2-valued; only labels carry maybe, so compositional checking
is two classical checks on NNF (Bruns-Godefroid).  Thorough semantics is
computed exactly only for K_x-shaped inputs (one all-maybe proposition over
a classical base), through the bisimulation-semantics machinery; arbitrary
3-valued structures get sound (compositional, labeling) bounds instead.
"""

from . import formula as F
from .bisim import greatest_rows
from .errors import EnumerationBoundError, EvalError, KripkeError
from .kleene import F3, M3, T3
from .kripke import KripkeStructure, restrict_init
from .mc import _Evaluator, check_ctl_star
from .qctl import eval_bisimulation
from .vacuity import VacuityStatus, VacuityVerdict

# re-exported: this module owns the 3-valued layer's public surface
from .kleene import TruthValue3, and3, implies3, info_le, kleene, not3, or3, truth_le  # noqa: F401


def eval_compositional3(k, phi, env=None):
    """Compositional value of a CTL formula, met over initial states: the
    classical labelling of nnf(phi), with literal p read as "p definitely
    true" and !p as "p definitely false", gives the states where phi is
    definitely true, and the same run on nnf(!phi) those where it is false."""
    if not F.is_ctl(phi):
        raise EvalError("3-valued compositional checking is restricted to CTL")
    if any(isinstance(f, F.SetAtom) and f.structure != k.name for f in F.subformulas(phi)):
        raise EvalError("foreign set atoms are not supported in 3-valued checking")
    ev = _Evaluator(k, env, definite=True)
    true, false = ev.states(F.nnf(phi)), ev.states(F.nnf(F.Not(phi)))
    verdict = T3
    for s in k.init:
        i = k.index(s)
        if false >> i & 1:
            verdict = and3(verdict, F3)
        elif not true >> i & 1:
            verdict = and3(verdict, M3)
    return verdict


def is_refinement(kless, kmore):
    """Greatest refinement relation covering both initial-state sets, or None.

    (s, t) is related when s's labels are below t's in the information order
    and each of s and t matches every step of the other inside the relation:
    the two-sided form of the simulation engine.
    """
    if sorted(kless.props) != sorted(kmore.props):
        raise KripkeError(f"refinement requires equal propositions ({kless.name} vs {kmore.name})")
    rel = greatest_rows(kless, kmore, kless.props, info_le, two_sided=True)
    return rel if rel.covers_init(both_ways=True) else None


def lift_kx(k, x):
    """K_x: add proposition x valued maybe in every state of a classical K."""
    if not k.is_classical:
        raise KripkeError("lift_kx expects a classical structure")
    if x in k.props:
        raise KripkeError(f"{k.name}: proposition {x!r} already present")
    labels = {}
    for s in k.states:
        ls = dict(k.labels_of(s))
        ls[x] = M3
        labels[s] = ls
    return KripkeStructure(f"{k.name}_{x}", k.props + (x,), k.states, k.init, k.trans, labels)


def labeling_completions(k3, bound=20):
    """All classical structures resolving every maybe on the same statespace."""
    slots = [(s, p) for s in k3.states for p in k3.props if k3.label3(s, p) is M3]
    if len(slots) > bound:
        raise EnumerationBoundError(f"2^{len(slots)} completions exceed the bound 2^{bound}")
    out = []
    for mask in range(1 << len(slots)):
        labels = {s: dict(k3.labels_of(s)) for s in k3.states}
        for j, (s, p) in enumerate(slots):
            labels[s][p] = T3 if mask >> j & 1 else F3
        out.append(
            KripkeStructure(f"{k3.name}#{mask + 1}", k3.props, k3.states, k3.init, k3.trans, labels)
        )
    return out


def thorough_kx(k, x, phi, bound=20, variant_bound=12):
    """Thorough value of phi on K_x, or (None, bounds) when undecided.

    Decided through bisimulation semantics: completions of K_x are exactly
    the structures x-bisimilar to K.  The false side ("every completion
    refutes phi") decomposes over single-initial restrictions of K, since a
    completion refutes as soon as one of its initial states fails.
    """
    if not k.is_classical:
        raise KripkeError("thorough_kx expects a classical base structure")
    if x not in F.atoms(phi):
        raise EvalError(f"{x!r} does not occur in the formula")
    pos = eval_bisimulation(k, F.ForallProp(x, phi), bound, variant_bound)
    if pos.value is True:
        return T3, None
    negs = [
        eval_bisimulation(restrict_init(k, (s,)), F.ForallProp(x, F.Not(phi)), bound, variant_bound)
        for s in k.init
    ]
    if any(r.value is True for r in negs):
        return F3, None
    if pos.value is False and all(r.value is False for r in negs):
        return M3, None
    bounds = {"compositional": None, "labeling": None}
    kx = lift_kx(k, x)
    if F.is_ctl(phi):
        bounds["compositional"] = eval_compositional3(kx, phi).value
    try:
        verdicts = {check_ctl_star(c, phi) for c in labeling_completions(kx)}
        bounds["labeling"] = "true" if verdicts == {True} else "false" if verdicts == {False} else "maybe"
    except EnumerationBoundError:
        pass
    return None, bounds


def vacuity_via_thorough(phi, psi, k, bound=20, variant_bound=12):
    """Vacuous iff phi[psi <- x] is thoroughly definite on K_x."""
    x = F.fresh_prop(F.atoms(phi) | set(k.props))
    phix = F.substitute(phi, psi, F.Atom(x))
    if x not in F.atoms(phix):
        # psi does not occur: the substitution is a no-op, thorough = classical.
        return VacuityVerdict(VacuityStatus.VACUOUS, "thorough", {"thorough": "definite"})
    if F.is_ctl(phix):
        v = eval_compositional3(lift_kx(k, x), phix)
        if v is not M3:
            return VacuityVerdict(VacuityStatus.VACUOUS, "compositional", {"compositional": v.value})
    v, bounds = thorough_kx(k, x, phix, bound, variant_bound)
    if v is T3 or v is F3:
        return VacuityVerdict(VacuityStatus.VACUOUS, "thorough", {"thorough": v.value})
    if v is M3:
        return VacuityVerdict(VacuityStatus.NON_VACUOUS, "thorough", {"thorough": "maybe"})
    return VacuityVerdict(VacuityStatus.UNKNOWN, "thorough", None, bounds)
