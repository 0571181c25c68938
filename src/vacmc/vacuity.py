"""Vacuity definitions and detection, and the one decision behind every
bisimulation-semantics question: does a body get verdict r on every
structure x-bisimilar to K?  _Query holds it and its routes: two prove (the
K||X check), two only refute (the sweep of K's labelings, the x-variant
search).  The vacuity dispatcher here, qctl's bisimulation and tree
semantics and three_valued's thorough semantics are route lists over it with
their own route names and evidence.  Every NonVacuous verdict carries a
replayable witness.  The dispatcher's optional bounded-validity probe labels
its small structures in batches, each batch one disjoint union and one
labelling, and reads every member's verdict off its initial state.
"""

import enum
import functools
import itertools
import warnings
from dataclasses import dataclass, field

from . import formula as F
from .bisim import quotient_bisim
from .errors import EnumerationBoundError, EvalError, NotApplicableError, PreconditionError
from .kripke import KripkeStructure, chi, compose_sync, duplicate_m, labelled, restrict_init, x_variants
from .mc import check_ctl_star, eval_mask, eval_states, sweep


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


def _status(vacuous):
    return VacuityStatus.VACUOUS if vacuous else VacuityStatus.NON_VACUOUS


def _env_with(k, env):
    out = dict(env or {})
    out.setdefault(k.name, k)
    return out


class _Query:
    """Does `body` get verdict r on every structure x-bisimilar to k?  Keeps
    what its routes find (the K||X product, the compositional bound and one
    resumable sweep of k's labelings of x); the variant search tries k's
    quotient, then partner(k), by default K^(2)."""

    def __init__(self, k, body, x, bound=20, variant_bound=12, env=None, partner=None):
        if x in k.props:
            raise EvalError(f"quantified variable {x!r} is already a proposition of {k.name}")
        self.k, self.body, self.x, self.env = k, body, x, env
        self.bound, self.variant_bound = bound, variant_bound
        self.partner = partner or functools.partial(duplicate_m, m=2)
        self.agreed = None  # the verdict every labeling of x on k gives body, once known
        self._first = {}  # verdict -> first labeling (a mask) giving it
        self._replayed = set()  # verdicts whose first labeling was checked
        self._chunks = None
        self._negates = None  # the query whose sweep this one reads, negated

    @functools.cached_property
    def kx(self):
        return compose_sync(self.k, chi(self.x))

    @functools.cached_property
    def compositional(self):
        """The compositional value of body on K_x ("true", "maybe" or "false"),
        or None outside CTL or with a set atom."""
        from .three_valued import eval_compositional3, lift_kx

        if not F.is_ctl(self.body) or any(isinstance(f, F.SetAtom) for f in F.subformulas(self.body)):
            return None  # K_x is renamed: every set atom is foreign there
        return eval_compositional3(lift_kx(self.k, self.x), self.body).value

    def first(self, verdict):
        """The first labeling of x on k (a mask) giving body `verdict`, or None.
        One sweep serves every call and goes no further than asked: in each
        chunk, the lowest set bit of bits (true) or of its complement (false).
        A labeling reported is replayed by one check of k with x so labelled,
        under k's own name, which must give the same verdict."""
        if self._negates is not None:
            mask, agreed = self._negates.first(not verdict), self._negates.agreed
            self.agreed = None if agreed is None else not agreed
            return mask
        if self._chunks is None:
            self._chunks = sweep(self.k, self.body, F.Atom(self.x), self.env)
        found = self._first
        if verdict not in found:
            for base, width, bits in self._chunks:
                for holds, hits in ((True, bits), (False, bits ^ (1 << width) - 1)):
                    if hits:
                        found.setdefault(holds, base + (hits & -hits).bit_length() - 1)
                if verdict in found:
                    break
            else:
                self.agreed = not verdict
        mask = found.get(verdict)
        if mask is not None and verdict not in self._replayed:
            self._replayed.add(verdict)
            if check_ctl_star(labelled(self.k, self.x, mask), self.body, self.env) != verdict:
                raise AssertionError(f"sweep of {self.k.name}: the lanes and a check disagree on labeling {mask}")
        return mask

    def decide(self, routes, r):
        """(value, route, evidence) of the first of `routes` that settles r, else
        (None, None, None).  A structure refutes body once one initial state fails
        it: r false holds iff some K_s gets verdict true for !body everywhere.
        With one initial state K_s is k, and it reads this query's sweep."""
        if r is not False:
            return next(filter(None, (route(self, r) for route in routes)), (None, None, None))
        values, several = [], len(self.k.init) > 1
        for s in self.k.init:
            qs = _Query(restrict_init(self.k, (s,)) if several else self.k, F.Not(self.body), self.x,
                        self.bound, self.variant_bound, self.env, self.partner)
            qs._negates = None if several else self
            values.append(qs.decide(routes, True)[0])
            if values[-1]:
                return True, None, None
        return (False if all(v is False for v in values) else None), None, None


def _scoped(body, x, r):
    """The fragment gate of the K||X reduction: x occurs under A alone (r true)
    or under E alone (r false).  ACTL* and ECTL* imply it, since a marker in
    place of psi can only remove quantifiers."""
    an = F.analyze(body, F.Atom(x))
    return an.universal_in if r else an.existential_in


def _kx_route(q, r):
    """Decides r true when x is universal in body: K||X is itself an x-variant."""
    if r is True and _scoped(q.body, q.x, True):
        return check_ctl_star(q.kx, q.body, q.env), "kx", None
    return None


def _sweep_route(q, r):
    """Refutes by the first labeling of x on k with another verdict than r."""
    mask = q.first(not r) if q.k.n <= q.bound else None
    return None if mask is None else (False, "sweep", q.k.names_of(mask))


def _variant_route(q, r):
    """Refutes by an x-variant of k's quotient or of partner(k), of at most
    variant_bound states, with another verdict than r.  A quotient of k's
    size is k renamed, so once k's own labelings all gave r it is skipped."""
    quotient = quotient_bisim(q.k)
    bases = [quotient, q.partner(q.k)]
    if quotient.n == q.k.n and q.agreed == r:
        del bases[0]
    found = _variant_disagreement(bases, q.body, q.x, r, q.variant_bound, q.env)
    if found is None:
        return None
    labeling = {s: found.label3(s, q.x).value == "true" for s in found.states}
    return False, "variant", {"structure": found.name, "labeling": labeling}


BISIM_ROUTES = (_kx_route, _sweep_route, _variant_route)


def _vacuity_query(phi, psi, k, bound=20, variant_bound=12, env=None):
    """phi[psi <- x] for a fresh x; its partner is K||X_y for a second fresh y."""
    taken = F.atoms(phi) | set(k.props)
    x = F.fresh_prop(taken)
    y = F.fresh_prop(taken | {x})
    return _Query(k, F.substitute(phi, psi, F.Atom(x)), x, bound, variant_bound, env,
                  lambda ks: compose_sync(ks, chi(y)))


def _constants(phi, psi, k, env):
    return tuple(check_ctl_star(k, F.substitute(phi, psi, c), env) for c in (F.TRUE, F.FALSE))


def constant_vacuous(phi, psi, k, env=None):
    """Replacing psi by true and by false yields the same verdict on k."""
    vt, vf = _constants(phi, psi, k, _env_with(k, env))
    return vt == vf


def structure_vacuous(phi, psi, k, bound=20, env=None):
    """(True, None) when all 2^|S| state-set substitutions agree, else (False,
    (satisfying names, falsifying names)) for the first disagreeing pair."""
    if k.n > bound:
        raise EnumerationBoundError(f"2^{k.n} substitutions exceed the bound 2^{bound}")
    q = _vacuity_query(phi, psi, k, bound, env=_env_with(k, env))
    sat, fal = q.first(True), q.first(False)
    return (True, None) if None in (sat, fal) else (False, (k.names_of(sat), k.names_of(fal)))


def syntactic_monotone(phi, psi):
    """Pure polarity (a single occurrence has one): guarantees monotonicity."""
    return F.occurrence_polarity(phi, psi) in (F.Polarity.POSITIVE, F.Polarity.NEGATIVE)


def is_mon_vacuous(phi, psi, k, env=None):
    """Constant comparison; decides bisimulation vacuity for monotone phi."""
    if not syntactic_monotone(phi, psi):
        warnings.warn(
            "is_mon_vacuous called on a subformula that is not syntactically "
            "monotone; the result decides vacuity only if phi is monotone in psi",
            stacklevel=2,
        )
    return constant_vacuous(phi, psi, k, env)


def _reduction(phi, psi, k, env, sat, requirement, gate):
    """The K||X route on the side K's verdict `sat` names, behind its gate."""
    env = _env_with(k, env)
    if check_ctl_star(k, phi, env) != sat:
        raise PreconditionError(requirement)
    q = _vacuity_query(phi, psi, k, env=env)
    if not _scoped(q.body, q.x, sat):
        raise NotApplicableError(gate)
    return q.decide((_kx_route,), sat)[0]


def is_sat_vacuous(phi, psi, k, env=None):
    """K||X |= phi[psi <- x]; decides vacuous satisfaction.

    Requires K |= phi and phi in ACTL* or psi universal in phi.
    """
    return _reduction(phi, psi, k, env, True, "is_sat_vacuous requires a formula satisfied by K",
                      "phi is not ACTL* and psi is not a universal subformula")


def is_fal_vacuous(phi, psi, k, env=None):
    """Dual of is_sat_vacuous: every x-variant refutes phi[psi <- x].

    Requires K |/= phi and phi in ECTL* or psi existential in phi.
    """
    return _reduction(phi, psi, k, env, False, "is_fal_vacuous requires a formula falsified by K",
                      "phi is not ECTL* and psi is not an existential subformula")


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
    no_maybe = dict.fromkeys(props, 0)
    for n in range(1, max_states + 1):
        # Each size's names and each transition shape's successor lists are
        # built once and shared by every labeling (structures are immutable).
        states = tuple(f"s{i}" for i in range(n))
        index = {s: i for i, s in enumerate(states)}
        rows = [[j for j in range(n) if m >> j & 1] for m in range(1 << n)]
        shapes = [[rows[m] for m in succs] for succs in itertools.product(range(1, 1 << n), repeat=n)]
        for labeling in itertools.product(range(1 << len(props)), repeat=n):
            tmask = {p: sum(1 << i for i in range(n) if labeling[i] >> j & 1) for j, p in enumerate(props)}
            for succ in shapes:
                yield KripkeStructure._of("probe", props, states, index, (states[0],), succ, tmask, no_maybe)


# The bounded-validity probe labels unions of at most _UNION_STATES states, the
# first of at most _FIRST_UNION and each next one up to twice its predecessor,
# so that an early disagreement is found after little work.
_FIRST_UNION, _UNION_STATES = 1 << 7, 1 << 10


@functools.lru_cache(maxsize=16)  # unions come in few sizes: near each doubling of the limit, and tails
def _union_names(n):
    states = tuple(f"u{i}" for i in range(n))
    return states, {s: i for i, s in enumerate(states)}


def _union(members):
    """The disjoint union of structures over the same propositions, member i's
    state j at offset_i + j, with every member's initial state initial; and
    the offsets.  Built at the index level: shifted successor rows, shifted
    label masks."""
    offsets, n = [], 0
    for m in members:
        offsets.append(n)
        n += m.n
    succ = [[j + o for j in row] for m, o in zip(members, offsets) for row in m.succ]
    props = members[0].props
    tmask = {p: sum(m._tmask[p] << o for m, o in zip(members, offsets)) for p in props}
    states, index = _union_names(n)
    init = tuple(states[o] for o in offsets)
    union = KripkeStructure._of("probe", props, states, index, init, succ, tmask, dict.fromkeys(props, 0))
    return union, offsets


def _batches(probes, first, cap):
    """Consecutive probes in lists of at least one probe and at most `first`
    states, then at most twice as many as the list before, up to cap."""
    batch, size, limit = [], 0, min(first, cap)
    for probe in probes:
        if batch and size + probe.n > limit:
            yield batch
            batch, size, limit = [], 0, min(2 * limit, cap)
        batch.append(probe)
        size += probe.n
    if batch:
        yield batch


def _probe_verdicts(body, max_states):
    """The verdicts body gets on the structures enumerate_structures yields
    over its atoms, up to max_states states, as far as the first batch that
    shows both.  Consecutive probes are labelled together as one disjoint
    union (see _UNION_STATES): CTL and CTL* hold per state, so
    each member's verdict is the bit of its initial state.  A set atom names
    the states of one structure, so a body with one is labelled probe by probe."""
    cap = 0 if any(isinstance(f, F.SetAtom) for f in F.subformulas(body)) else _UNION_STATES
    verdicts = set()
    for batch in _batches(enumerate_structures(sorted(F.atoms(body)), max_states), _FIRST_UNION, cap):
        union, offsets = _union(batch) if len(batch) > 1 else (batch[0], (0,))
        mask = eval_mask(union, body)
        verdicts.update(bool(mask >> o & 1) for o in offsets)
        if len(verdicts) > 1:
            break
    return verdicts


def _variant_disagreement(base_structs, phix, x, reference, bound, env=None):
    """The first x-variant of the given structures (of at most `bound` states)
    on which phix's verdict != reference, or None.  Each structure's labelings
    of x are swept in x_variants order and only the witness is built; but a
    variant is a structure of another name, so when phix has a set atom named
    after ks or one of its variants, every variant is built and checked."""
    named = {f.structure for f in F.subformulas(phix) if isinstance(f, F.SetAtom)}
    for ks in base_structs:
        if ks.n > bound:
            continue
        variants = x_variants(ks, x)
        if any(n == ks.name or n.startswith(ks.name + "^") for n in named):
            found = next((v for v in variants if check_ctl_star(v, phix, env) != reference), None)
        else:
            mask = _Query(ks, phix, x, env=env).first(not reference)
            found = None if mask is None else variants[mask]
        if found is not None:
            return found
    return None


def decide_bisim_vacuity(phi, psi, k, bounded_validity=None, bound=20, variant_bound=12, env=None):
    """Three-valued bisimulation-vacuity verdict with route and evidence: does
    phi[psi <- x] keep K's verdict on every structure x-bisimilar to K?"""
    env = _env_with(k, env)
    polarity = F.occurrence_polarity(phi, psi)
    if polarity is F.Polarity.ABSENT:
        return VacuityVerdict(VacuityStatus.VACUOUS, "absent")
    if polarity is not F.Polarity.MIXED:  # syntactically monotone
        vt, vf = _constants(phi, psi, k, env)
        return VacuityVerdict(_status(vt == vf), "monotone", {"substituted_true": vt, "substituted_false": vf})

    sat = check_ctl_star(k, phi, env)
    q = _vacuity_query(phi, psi, k, bound, variant_bound, env)
    # satx/falx: the K||X route on the side K's verdict names.
    value = q.decide((_kx_route,), sat)[0]
    if value is not None:
        evidence = None
        if not value and sat:
            evidence = {"structure": q.kx.name, "formula": F.render_formula(q.body), "verdict": False}
        elif not value:
            evidence = {"formula": F.render_formula(q.body), "satisfiable_variant": True}
        return VacuityVerdict(_status(value), "satx" if sat else "falx", evidence)

    if k.n <= bound:
        flag, witness = structure_vacuous(phi, psi, k, bound, env)
        if not flag:
            evidence = {"satisfying_set": list(witness[0]), "falsifying_set": list(witness[1])}
            return VacuityVerdict(VacuityStatus.NON_VACUOUS, "structure-witness", evidence)
        # Every state set gave one verdict (swept by structure_vacuous, the layer
        # bench/ times); for a state formula psi it is K |= phi, psi's own set's.
        empty = F.SetAtom(k.name, (), ref=k)
        q.agreed = sat if F.is_state_formula(psi) else check_ctl_star(k, F.substitute(phi, psi, empty), env)
        found = _variant_route(q, q.agreed)
        if found is not None:
            evidence = dict(found[2], formula=F.render_formula(q.body), verdict=not q.agreed)
            return VacuityVerdict(VacuityStatus.NON_VACUOUS, "variant-witness", evidence)

    # Optional bounded-validity probe (tautology/unsatisfiable cases).
    if bounded_validity:
        verdicts = _probe_verdicts(q.body, bounded_validity)
        if len(verdicts) == 1:
            side = "valid" if verdicts == {True} else "unsatisfiable"
            bounds = {"bounded_validity": bounded_validity}
            return VacuityVerdict(VacuityStatus.VACUOUS, "bounded-validity", {"side": side}, bounds)

    # labeling_agreement: the structure sweep ran, and every labeling agreed
    bounds = {"compositional": q.compositional, "labeling_agreement": True if k.n <= bound else None}
    return VacuityVerdict(VacuityStatus.UNKNOWN, "unknown", None, bounds)


def prop_simplify(phi, k, selector=None, env=None):
    """Replace selected state subformulas by set atoms of their extensions.

    The default selector replaces every maximal existential (E-rooted) state
    subformula.  An explicit selector is an iterable of subformulas, each of
    which must be a state formula.
    """
    env = _env_with(k, env)
    targets = None if selector is None else set(selector)
    for f in targets or ():
        if not F.is_state_formula(f):
            raise EvalError(f"selector picks a path formula: {F.render_formula(f)}")

    def selected(f):
        return isinstance(f, F.PathE) if targets is None else f in targets

    return F.fold(phi, lambda f: () if selected(f) else f.children(),
                  lambda f, parts: F.SetAtom(k.name, eval_states(k, f, env).names, ref=k) if selected(f)
                  else F._rebuild(f, parts))
