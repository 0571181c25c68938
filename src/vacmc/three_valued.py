"""3-valued structures: compositional CTL and CTL* checking, refinement,
completions, thorough semantics on K_x, and the vacuity reduction through it.

Transitions stay 2-valued; only labels carry maybe, so compositional checking
is two classical checks on NNF (Bruns-Godefroid), by fixpoints or tableau.
Thorough semantics is computed exactly only for K_x-shaped inputs (one
all-maybe proposition over a classical base), whose completions are the
structures x-bisimilar to K: it is vacuity._Query's bisimulation route
table, with its two bounds when undecided.
"""

from . import formula as F
from .bisim import greatest_rows
from .errors import EnumerationBoundError, EvalError, KripkeError
from .kleene import F3, M3, T3
from .kripke import KripkeStructure, LazySequence, mask_members
from .mc import _Evaluator
from .vacuity import BISIM_ROUTES, VacuityStatus, VacuityVerdict, _Query, _status

# re-exported: this module owns the 3-valued layer's public surface
from .kleene import TruthValue3, and3, implies3, info_le, kleene, not3, or3, truth_le  # noqa: F401


def eval_compositional3(k, phi, env=None):
    """Compositional value of a CTL or CTL* formula, met over initial states:
    the classical labelling of nnf(phi), with literal p read as "p definitely
    true" and !p as "p definitely false", gives the states where phi is true
    on every completion (NNF is monotone in its literals), and the same run on
    nnf(!phi) those where it is false.  A set atom is read only when its home
    shares k's states (see _setatom)."""
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
    return KripkeStructure._of(f"{k.name}_{x}", k.props + (x,), k.states, k._index, k.init, k.succ,
                               {**k._tmask, x: 0}, {**k._mmask, x: k.full_mask}, k._pred)


def labeling_completions(k3, bound=20):
    """All classical structures resolving every maybe on the same statespace,
    as a lazy sequence: completion `mask`, named k3.name^(mask+1), resolves
    maybe slot j (slots by state, then proposition) to true iff bit j of mask
    is set.  Each shares k3's states and successor lists and ORs its true
    slots into the true masks."""
    props = k3.props
    slots = sorted((i, a) for a, p in enumerate(props) for i in mask_members(k3.maybe_mask(p)))
    if len(slots) > bound:
        raise EnumerationBoundError(f"2^{len(slots)} completions exceed the bound 2^{bound}")

    def completion(mask):
        true = dict(k3._tmask)
        for j, (i, a) in enumerate(slots):
            if mask >> j & 1:
                true[props[a]] |= 1 << i
        return KripkeStructure._of(f"{k3.name}^{mask + 1}", props, k3.states, k3._index, k3.init,
                                   k3.succ, true, dict.fromkeys(props, 0), k3._pred)

    return LazySequence(1 << len(slots), completion)


def _thorough(q):
    """(thorough value of q.body on K_x, None), or (None, bounds) when undecided:
    every completion satisfies iff the ladder decides verdict true, every one
    refutes iff it decides false."""
    if not q.k.is_classical:
        raise KripkeError("thorough_kx expects a classical base structure")
    pos = q.decide(BISIM_ROUTES, True)[0]
    if pos:
        return T3, None
    neg = q.decide(BISIM_ROUTES, False)[0]
    if neg:
        return F3, None
    if pos is False and neg is False:
        return M3, None
    labeling = None
    try:
        # labeling_completions applies the bound and builds nothing until
        # indexed; completion i of K_x is K's labeling i of x, whose verdict
        # the ladder's own sweep gives.
        labeling_completions(lift_kx(q.k, q.x), q.bound)
        verdicts = {v for v in (True, False) if q.first(v) is not None}
        labeling = "maybe" if len(verdicts) == 2 else str(verdicts.pop()).lower()
    except EnumerationBoundError:
        pass
    return None, {"compositional": q.compositional, "labeling": labeling}


def thorough_kx(k, x, phi, bound=20):
    """Thorough value of phi on K_x (whose completions are the structures
    x-bisimilar to K), or (None, bounds) when undecided."""
    if x not in F.atoms(phi):
        raise EvalError(f"{x!r} does not occur in the formula")
    return _thorough(_Query(k, phi, x, bound))


def vacuity_via_thorough(phi, psi, k, bound=20):
    """Vacuous iff phi[psi <- x] is thoroughly definite on K_x."""
    x = F.fresh_prop(F.atoms(phi) | set(k.props))
    phix = F.substitute(phi, psi, F.Atom(x))
    if x not in F.atoms(phix):
        # psi does not occur: the substitution is a no-op, thorough = classical.
        return VacuityVerdict(VacuityStatus.VACUOUS, "thorough", {"thorough": "definite"})
    q = _Query(k, phix, x, bound)
    if q.compositional not in (None, "maybe"):
        return VacuityVerdict(VacuityStatus.VACUOUS, "compositional", {"compositional": q.compositional})
    v, bounds = _thorough(q)
    if v is None:
        return VacuityVerdict(VacuityStatus.UNKNOWN, "thorough", None, bounds)
    return VacuityVerdict(_status(v is not M3), "thorough", {"thorough": v.value})
