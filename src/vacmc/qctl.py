"""Quantified formulas under structure, tree, and bisimulation semantics.

Structure semantics is exact brute force over state subsets.  Bisimulation
and tree semantics ask vacuity's forall-x decision (`_Query`, searching the
x-variants of K/~ and K^(2)) for verdict true; exists x . body is asked as
forall x . !body and reported as Duality.  Bisimulation semantics runs the
whole route table; tree semantics reports the cheapest sound route.
"""

from dataclasses import dataclass

from . import formula as F
from .errors import EnumerationBoundError, EvalError, KripkeError
from .kripke import is_deterministic, structurally_equal, validate_unrolling_map
from .mc import check_ctl_star
from .vacuity import BISIM_ROUTES, _kx_route, _Query, _sweep_route

BRUTE_FORCE_Y = "BruteForceY"
K_PARALLEL_X = "KParallelX"
DUALITY = "Duality"
DETERMINISTIC_COLLAPSE = "DeterministicCollapse"
PATH_FORMULA_EQUIVALENCE = "PathFormulaEquivalence"
CHAIN_IMPLICATION = "ChainImplication"
REGULAR_WITNESS = "RegularWitness"
UNKNOWN = "Unknown"

_ROUTE_NAMES = {"kx": K_PARALLEL_X, "sweep": CHAIN_IMPLICATION, "variant": REGULAR_WITNESS}


@dataclass(frozen=True)
class QEvalResult:
    value: bool | None
    route: str
    witness: object = None

    @property
    def decided(self):
        return self.value is not None


def _result(question, routes):
    """The first of `routes` that settles verdict true for question, as a QEvalResult."""
    value, route, evidence = question.decide(routes, True)
    if value is None:
        return QEvalResult(None, UNKNOWN)
    if route == "sweep":
        evidence = {"labeling": list(evidence)}
    return QEvalResult(value, _ROUTE_NAMES[route], evidence)


def _quantified(k, q, forall, bound, env):
    """`forall` (question -> QEvalResult) on q; exists var . body is !(forall var . !body)."""
    kind, var, body = F.strip_quantifier(q)
    r = forall(_Query(k, body if kind == "forall" else F.Not(body), var, bound, env))
    if kind == "forall" or not r.decided:
        return r
    return QEvalResult(not r.value, DUALITY, r.witness)


def eval_structural(k, q, bound=20, env=None):
    """Brute force over Y <= S; returns (value, deciding labeling or None)."""
    kind, var, body = F.strip_quantifier(q)
    question = _Query(k, body, var, env=env)
    if k.n > bound:
        raise EnumerationBoundError(f"2^{k.n} labelings exceed the bound 2^{bound}")
    deciding = kind == "exists"  # a true labeling decides exists, a false one forall
    mask = question.first(deciding)
    return (not deciding, None) if mask is None else (deciding, k.names_of(mask))


def eval_bisimulation(k, q, bound=20, env=None):
    """Bisimulation semantics of a root-quantified formula."""
    return _quantified(k, q, lambda question: _result(question, BISIM_ROUTES), bound, env)


def pathify(phi):
    """Erase every path quantifier; sound on unary computation trees."""
    return F.fold(phi, F.Formula.children,
                  lambda f, parts: parts[0] if isinstance(f, (F.PathA, F.PathE)) else F._rebuild(f, parts))


def _tree_forall(question):
    body = question.body
    if isinstance(body, F.PathA) and F.is_pure_path(body.child):
        r = _result(question, BISIM_ROUTES)
        if r.decided:
            return QEvalResult(r.value, PATH_FORMULA_EQUIVALENCE, r.witness)
    if is_deterministic(question.k):
        value = check_ctl_star(question.kx, F.PathA(pathify(body)), question.env)
        return QEvalResult(value, DETERMINISTIC_COLLAPSE)
    r = _result(question, (_sweep_route,))
    if r.value is False:
        return r
    # Only K||X can still decide: the sweep is done, and a refutation under
    # bisimulation semantics says nothing about trees.
    if question.decide((_kx_route,), True)[0]:
        return QEvalResult(True, CHAIN_IMPLICATION)
    return QEvalResult(None, UNKNOWN)


def eval_tree(k, q, bound=20, env=None):
    """Tree semantics by the first applicable sound route."""
    return _quantified(k, q, _tree_forall, bound, env)


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
