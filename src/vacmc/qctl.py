"""Quantified formulas under structure, tree, and bisimulation semantics.

Structure semantics is exact brute force over state subsets.  Bisimulation
semantics decides through the K||X reduction when the bound variable sits
under purely universal (dually, existential) path quantifiers, and can
still certify the False side for arbitrary formulas via the semantic
implication chain or an explicit x-variant counterexample.  Tree semantics
is decided by the cheapest sound route and reports which one fired.
"""

from dataclasses import dataclass

from . import formula as F
from .errors import EnumerationBoundError, EvalError, KripkeError
from .kripke import chi, compose_sync, duplicate_m, is_deterministic, structurally_equal, validate_unrolling_map
from .bisim import quotient_bisim
from .mc import check_ctl_star, sweep
from .vacuity import _variant_disagreement

BRUTE_FORCE_Y = "BruteForceY"
K_PARALLEL_X = "KParallelX"
DUALITY = "Duality"
DETERMINISTIC_COLLAPSE = "DeterministicCollapse"
PATH_FORMULA_EQUIVALENCE = "PathFormulaEquivalence"
CHAIN_IMPLICATION = "ChainImplication"
REGULAR_WITNESS = "RegularWitness"
UNKNOWN = "Unknown"


@dataclass(frozen=True)
class QEvalResult:
    value: bool | None
    route: str
    witness: object = None

    @property
    def decided(self):
        return self.value is not None


def _split(k, q):
    kind, var, body = F.strip_quantifier(q)
    if var in k.props:
        raise EvalError(f"quantified variable {var!r} is already a proposition of {k.name}")
    return kind, var, body


def eval_structural(k, q, bound=20, env=None):
    """Brute force over Y <= S; returns (value, deciding labeling or None)."""
    kind, var, body = _split(k, q)
    if k.n > bound:
        raise EnumerationBoundError(f"2^{k.n} labelings exceed the bound 2^{bound}")
    for mask, holds in sweep(k, body, F.Atom(var), env):  # var is not a proposition of k
        if kind == "forall" and not holds:
            return False, k.names_of(mask)
        if kind == "exists" and holds:
            return True, k.names_of(mask)
    return (True, None) if kind == "forall" else (False, None)


def _bisim_forall(k, var, body, bound, variant_bound, env):
    if F.analyze(body, F.Atom(var)).universal_in:
        value = check_ctl_star(compose_sync(k, chi(var)), body, env)
        return QEvalResult(value, K_PARALLEL_X)
    if k.n <= bound:
        value, labeling = eval_structural(k, F.ForallProp(var, body), bound, env)
        if not value:
            return QEvalResult(False, CHAIN_IMPLICATION, {"labeling": list(labeling)})
    variant = _variant_disagreement((quotient_bisim(k), duplicate_m(k, 2)), body, var, True, variant_bound, env)
    if variant is not None:
        witness = {
            "structure": variant.name,
            "labeling": {s: variant.label3(s, var).value == "true" for s in variant.states},
        }
        return QEvalResult(False, REGULAR_WITNESS, witness)
    return QEvalResult(None, UNKNOWN)


def eval_bisimulation(k, q, bound=20, variant_bound=12, env=None):
    """Bisimulation semantics of a root-quantified formula."""
    kind, var, body = _split(k, q)
    if kind == "forall":
        return _bisim_forall(k, var, body, bound, variant_bound, env)
    inner = _bisim_forall(k, var, F.Not(body), bound, variant_bound, env)
    if not inner.decided:
        return QEvalResult(None, UNKNOWN)
    return QEvalResult(not inner.value, DUALITY, inner.witness)


def pathify(phi):
    """Erase every path quantifier; sound on unary computation trees."""
    if isinstance(phi, (F.PathA, F.PathE)):
        return pathify(phi.child)
    return F._rebuild(phi, [pathify(c) for c in phi.children()])


def _tree_forall(k, var, body, bound, variant_bound, env):
    if isinstance(body, F.PathA) and F.is_pure_path(body.child):
        r = _bisim_forall(k, var, body, bound, variant_bound, env)
        if r.decided:
            return QEvalResult(r.value, PATH_FORMULA_EQUIVALENCE, r.witness)
    if is_deterministic(k):
        kx = compose_sync(k, chi(var))
        value = check_ctl_star(kx, F.PathA(pathify(body)), env)
        return QEvalResult(value, DETERMINISTIC_COLLAPSE)
    if k.n <= bound:
        value, labeling = eval_structural(k, F.ForallProp(var, body), bound, env)
        if not value:
            return QEvalResult(False, CHAIN_IMPLICATION, {"labeling": list(labeling)})
    r = _bisim_forall(k, var, body, bound, variant_bound, env)
    if r.value is True:
        return QEvalResult(True, CHAIN_IMPLICATION)
    return QEvalResult(None, UNKNOWN)


def eval_tree(k, q, bound=20, variant_bound=12, env=None):
    """Tree semantics by the first applicable sound route."""
    kind, var, body = _split(k, q)
    if kind == "forall":
        return _tree_forall(k, var, body, bound, variant_bound, env)
    inner = _tree_forall(k, var, F.Not(body), bound, variant_bound, env)
    if not inner.decided:
        return QEvalResult(None, UNKNOWN)
    return QEvalResult(not inner.value, DUALITY, inner.witness)


def refute_tree_with_witness(k, q, u):
    """True iff the certified regular x-variant of T(k) falsifies the body."""
    kind, var, body = F.strip_quantifier(q)
    if kind != "forall":
        raise EvalError("tree refutation applies to universally quantified formulas")
    if u.target is not k and not structurally_equal(u.target, k):
        raise KripkeError("unrolling map targets a different structure")
    if not validate_unrolling_map(u, var):
        raise KripkeError("invalid unrolling map")
    return not check_ctl_star(u.source, body)
