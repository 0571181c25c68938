"""Vacuity definitions and detection: constants, state sets, bisimulation.

The dispatcher decide_bisim_vacuity tries the cheap theorem-backed routes
first (monotone comparison, then the K||X reduction on the applicable
fragment/side), falls back to refutation searches, and reports Unknown with
sound bounds when nothing decides.  Every NonVacuous verdict carries a
replayable witness.
"""

import enum
import itertools
import warnings
from dataclasses import dataclass, field

from . import formula as F
from .bisim import quotient_bisim
from .errors import EnumerationBoundError, EvalError, NotApplicableError, PreconditionError
from .kripke import KripkeStructure, chi, compose_sync, restrict_init, x_variants
from .mc import check_ctl_star, eval_states, sweep


class VacuityStatus(enum.Enum):
    VACUOUS = "vacuous"
    NON_VACUOUS = "non-vacuous"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class VacuityVerdict:
    status: VacuityStatus
    route: str
    evidence: dict = field(default=None, compare=False)
    bounds: dict = field(default=None, compare=False)

    def to_dict(self):
        out = {"status": self.status.value, "route": self.route}
        if self.evidence is not None:
            out["witness"] = self.evidence
        if self.bounds is not None:
            out["bounds"] = self.bounds
        return out


def _env_with(k, env):
    out = dict(env or {})
    out.setdefault(k.name, k)
    return out


def constant_vacuous(phi, psi, k, env=None):
    """Replacing psi by true and by false yields the same verdict on k."""
    env = _env_with(k, env)
    vt = check_ctl_star(k, F.substitute(phi, psi, F.TRUE), env)
    vf = check_ctl_star(k, F.substitute(phi, psi, F.FALSE), env)
    return vt == vf


def structure_vacuous(phi, psi, k, bound=20, env=None):
    """All 2^|S| state-set substitutions agree; else a disagreeing pair.

    Returns (flag, witness) with witness = (satisfying names, falsifying
    names) when the flag is False.
    """
    if k.n > bound:
        raise EnumerationBoundError(f"2^{k.n} substitutions exceed the bound 2^{bound}")
    hole = F.Atom(_fresh_var(phi, k))
    sat_y = fal_y = None
    for mask, holds in sweep(k, F.substitute(phi, psi, hole), hole, _env_with(k, env)):
        if holds:
            if sat_y is None:
                sat_y = mask
        elif fal_y is None:
            fal_y = mask
        if sat_y is not None and fal_y is not None:
            return False, (k.names_of(sat_y), k.names_of(fal_y))
    return True, None


def syntactic_monotone(phi, psi):
    """Single occurrence, or pure polarity: guarantees monotonicity."""
    n = F.count_occurrences(phi, psi)
    if n == 1:
        return True
    pol = F.occurrence_polarity(phi, psi)
    return pol in (F.Polarity.POSITIVE, F.Polarity.NEGATIVE)


def is_mon_vacuous(phi, psi, k, env=None):
    """Constant comparison; decides bisimulation vacuity for monotone phi."""
    if not syntactic_monotone(phi, psi):
        warnings.warn(
            "is_mon_vacuous called on a subformula that is not syntactically "
            "monotone; the result decides vacuity only if phi is monotone in psi",
            stacklevel=2,
        )
    return constant_vacuous(phi, psi, k, env)


def _fresh_var(phi, k):
    return F.fresh_prop(F.atoms(phi) | set(k.props))


def is_sat_vacuous(phi, psi, k, env=None):
    """K||X |= phi[psi <- x]; decides vacuous satisfaction.

    Requires K |= phi and phi in ACTL* or psi universal in phi.
    """
    env = _env_with(k, env)
    if not check_ctl_star(k, phi, env):
        raise PreconditionError("is_sat_vacuous requires a formula satisfied by K")
    an = F.analyze(phi, psi)
    if not (an.is_actl_star or an.universal_in):
        raise NotApplicableError("phi is not ACTL* and psi is not a universal subformula")
    x = _fresh_var(phi, k)
    kx = compose_sync(k, chi(x))
    return check_ctl_star(kx, F.substitute(phi, psi, F.Atom(x)), env)


def _every_variant_refutes(k, phix, x, env):
    """Whether every structure x-bisimilar to k refutes phix.

    With K |= phi meaning "all initial states", refutation decomposes per
    initial state: some initial state must fail phix in every variant, which
    the K||X reduction decides on each single-initial restriction.
    """
    for s in k.init:
        ki = restrict_init(k, (s,))
        if check_ctl_star(compose_sync(ki, chi(x)), F.Not(phix), env):
            return True
    return False


def is_fal_vacuous(phi, psi, k, env=None):
    """Dual of is_sat_vacuous: every x-variant refutes phi[psi <- x].

    Requires K |/= phi and phi in ECTL* or psi existential in phi.
    """
    env = _env_with(k, env)
    if check_ctl_star(k, phi, env):
        raise PreconditionError("is_fal_vacuous requires a formula falsified by K")
    an = F.analyze(phi, psi)
    if not (an.is_ectl_star or an.existential_in):
        raise NotApplicableError("phi is not ECTL* and psi is not an existential subformula")
    x = _fresh_var(phi, k)
    return _every_variant_refutes(k, F.substitute(phi, psi, F.Atom(x)), x, env)


def enumerate_structures(props, max_states, limit=200_000):
    """Every classical pointed structure with <= max_states states over props.

    Initial state fixed to the first state; used by the bounded-validity
    probe, where unreachable components are covered by the smaller sizes.
    """
    props = tuple(props)
    total = 0
    for n in range(1, max_states + 1):
        total += (1 << len(props)) ** n * ((1 << n) - 1) ** n
    if total > limit:
        raise EnumerationBoundError(f"bounded-validity probe would enumerate {total} structures")
    for n in range(1, max_states + 1):
        states = tuple(f"s{i}" for i in range(n))
        for labeling in itertools.product(range(1 << len(props)), repeat=n):
            labels = {
                states[i]: {p: bool(labeling[i] >> j & 1) for j, p in enumerate(props)}
                for i in range(n)
            }
            for succs in itertools.product(range(1, 1 << n), repeat=n):
                trans = [
                    (states[i], states[j])
                    for i in range(n)
                    for j in range(n)
                    if succs[i] >> j & 1
                ]
                yield KripkeStructure("probe", props, states, (states[0],), trans, labels)


def _variant_disagreement(base_structs, phix, x, reference, bound, env=None):
    """The first x-variant of the given structures (of at most `bound` states)
    on which phix's verdict != reference, or None.

    Each structure is swept on one evaluator, x's labeling assigned per mask
    in x_variants order; only the witness variant is built.  A variant is a
    structure of another name, so when phix has a set atom named after ks or
    one of its variants, every variant is built and checked instead.
    """
    hole = F.Atom(x)
    for ks in base_structs:
        if ks.n > bound:
            continue
        variants = x_variants(ks, x)
        if any(
            isinstance(f, F.SetAtom) and (f.structure == ks.name or f.structure.startswith(ks.name + "^"))
            for f in F.subformulas(phix)
        ):
            for variant in variants:
                if check_ctl_star(variant, phix, env) != reference:
                    return variant
            continue
        for mask, holds in sweep(ks, phix, hole, env):
            if holds != reference:
                return variants[mask]
    return None


def decide_bisim_vacuity(phi, psi, k, bounded_validity=None, bound=20, variant_bound=12, env=None):
    """Three-valued bisimulation-vacuity verdict with route and evidence."""
    env = _env_with(k, env)
    if F.count_occurrences(phi, psi) == 0:
        return VacuityVerdict(VacuityStatus.VACUOUS, "absent")

    # Route 2: monotone comparison on K itself.
    if syntactic_monotone(phi, psi):
        vt = check_ctl_star(k, F.substitute(phi, psi, F.TRUE), env)
        vf = check_ctl_star(k, F.substitute(phi, psi, F.FALSE), env)
        evidence = {"substituted_true": vt, "substituted_false": vf}
        status = VacuityStatus.VACUOUS if vt == vf else VacuityStatus.NON_VACUOUS
        return VacuityVerdict(status, "monotone", evidence)

    sat = check_ctl_star(k, phi, env)
    an = F.analyze(phi, psi)
    x = _fresh_var(phi, k)
    phix = F.substitute(phi, psi, F.Atom(x))

    # Routes 3/4: the K||X reduction on the applicable side.
    if sat and (an.is_actl_star or an.universal_in):
        kx = compose_sync(k, chi(x))
        if check_ctl_star(kx, phix, env):
            return VacuityVerdict(VacuityStatus.VACUOUS, "satx")
        evidence = {"structure": kx.name, "formula": F.render_formula(phix), "verdict": False}
        return VacuityVerdict(VacuityStatus.NON_VACUOUS, "satx", evidence)
    if not sat and (an.is_ectl_star or an.existential_in):
        if _every_variant_refutes(k, phix, x, env):
            return VacuityVerdict(VacuityStatus.VACUOUS, "falx")
        evidence = {"formula": F.render_formula(phix), "satisfiable_variant": True}
        return VacuityVerdict(VacuityStatus.NON_VACUOUS, "falx", evidence)

    # Route 5: refutation searches (sound by the necessity of structure vacuity).
    labeling_agreement = None
    if k.n <= bound:
        flag, witness = structure_vacuous(phi, psi, k, bound, env)
        if not flag:
            evidence = {"satisfying_set": list(witness[0]), "falsifying_set": list(witness[1])}
            return VacuityVerdict(VacuityStatus.NON_VACUOUS, "structure-witness", evidence)
        labeling_agreement = True
        # Every state set gave one verdict.  For a state formula psi, K |= phi
        # is the verdict of the set of psi's states, so it is that verdict.
        if F.is_state_formula(psi):
            reference = sat
        else:
            reference = check_ctl_star(k, F.substitute(phi, psi, F.SetAtom(k.name, (), ref=k)), env)
        candidates = [quotient_bisim(k)]
        y = F.fresh_prop(F.atoms(phi) | set(k.props) | {x})
        candidates.append(compose_sync(k, chi(y)))
        found = _variant_disagreement(candidates, phix, x, reference, variant_bound)
        if found is not None:
            evidence = {
                "structure": found.name,
                "labeling": {s: (found.label3(s, x).value == "true") for s in found.states},
                "formula": F.render_formula(phix),
                "verdict": not reference,
            }
            return VacuityVerdict(VacuityStatus.NON_VACUOUS, "variant-witness", evidence)

    # Optional bounded-validity probe (tautology/unsatisfiable cases).
    if bounded_validity:
        probe_props = sorted(F.atoms(phix))
        verdicts = set()
        for probe in enumerate_structures(probe_props, bounded_validity):
            verdicts.add(check_ctl_star(probe, phix))
            if len(verdicts) > 1:
                break
        if len(verdicts) == 1:
            side = "valid" if verdicts == {True} else "unsatisfiable"
            return VacuityVerdict(
                VacuityStatus.VACUOUS,
                "bounded-validity",
                {"side": side},
                {"bounded_validity": bounded_validity},
            )

    compositional = None
    if F.is_ctl(phix):
        from .three_valued import eval_compositional3, lift_kx

        compositional = eval_compositional3(lift_kx(k, x), phix).value
    return VacuityVerdict(
        VacuityStatus.UNKNOWN,
        "unknown",
        None,
        {"compositional": compositional, "labeling_agreement": labeling_agreement},
    )


def prop_simplify(phi, k, selector=None, env=None):
    """Replace selected state subformulas by set atoms of their extensions.

    The default selector replaces every maximal existential (E-rooted) state
    subformula.  An explicit selector is an iterable of subformulas, each of
    which must be a state formula.
    """
    env = _env_with(k, env)
    targets = None
    if selector is not None:
        targets = set(selector)
        for f in targets:
            if not F.is_state_formula(f):
                raise EvalError(f"selector picks a path formula: {F.render_formula(f)}")

    def matches(f):
        if targets is not None:
            return f in targets
        return isinstance(f, F.PathE)

    def go(f):
        if matches(f):
            names = eval_states(k, f, env).names
            return F.SetAtom(k.name, names, ref=k)
        return F._rebuild(f, [go(c) for c in f.children()])

    return go(phi)
