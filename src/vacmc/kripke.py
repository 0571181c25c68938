"""Kripke structures, the .kr text format, and structure constructions.

Structures are immutable after construction.  State sets are handled as
integer bitmasks over the state tuple; labels are 3-valued (classical
structures simply never use maybe).
"""

from collections.abc import Sequence
from dataclasses import dataclass
from importlib import resources
from itertools import compress

from .errors import KripkeError
from .kleene import F3, M3, T3, TruthValue3, from_bool


_TO_BITS = bytes.maketrans(b"01", b"\0\1")


def mask_members(mask):
    """State indices in mask, ascending."""
    if mask.bit_count() * 16 > mask.bit_length() + 128:  # dense: let C walk every position
        return list(compress(range(mask.bit_length()), bin(mask)[:1:-1].encode().translate(_TO_BITS)))
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class KripkeStructure:
    """Finite transition system with total transitions and 3-valued labels."""

    def __init__(self, name, props, states, init, trans, labels):
        self.name = name
        self.props = tuple(props)
        self.states = tuple(states)
        if len(set(self.states)) != len(self.states):
            raise KripkeError(f"{name}: duplicate state names")
        if len(set(self.props)) != len(self.props):
            raise KripkeError(f"{name}: duplicate proposition names")
        self._index = {s: i for i, s in enumerate(self.states)}
        self.n = len(self.states)
        self._pred = None

        init = tuple(dict.fromkeys(init))
        if not init:
            raise KripkeError(f"{name}: empty set of initial states")
        for s in init:
            if s not in self._index:
                raise KripkeError(f"{name}: undeclared initial state {s!r}")
        self.init = init
        self.init_mask = self.mask_of(init)

        self.succ_masks = [0] * self.n
        seen = set()
        ordered = []
        for s, t in trans:
            if s not in self._index or t not in self._index:
                raise KripkeError(f"{name}: transition on undeclared state ({s!r}, {t!r})")
            if (s, t) in seen:
                continue
            seen.add((s, t))
            ordered.append((s, t))
            self.succ_masks[self._index[s]] |= 1 << self._index[t]
        self.trans = tuple(sorted(ordered, key=lambda e: (self._index[e[0]], self._index[e[1]])))
        for i, s in enumerate(self.states):
            if self.succ_masks[i] == 0:
                raise KripkeError(f"{name}: state {s!r} has no outgoing transition")

        self._tmask = {p: 0 for p in self.props}
        self._mmask = {p: 0 for p in self.props}
        for s, assignment in labels.items():
            if s not in self._index:
                raise KripkeError(f"{name}: labels for undeclared state {s!r}")
            for p, v in assignment.items():
                if p not in self._tmask:
                    raise KripkeError(f"{name}: undeclared proposition {p!r} on state {s!r}")
                if isinstance(v, bool):
                    v = from_bool(v)
                if v is T3:
                    self._tmask[p] |= 1 << self._index[s]
                elif v is M3:
                    self._mmask[p] |= 1 << self._index[s]

    # -- basic queries ------------------------------------------------------

    @property
    def full_mask(self):
        return (1 << self.n) - 1

    def index(self, state):
        try:
            return self._index[state]
        except KeyError:
            raise KripkeError(f"{self.name}: unknown state {state!r}") from None

    def mask_of(self, names):
        m = 0
        for s in names:
            m |= 1 << self.index(s)
        return m

    def names_of(self, mask):
        states = self.states
        return tuple(states[i] for i in mask_members(mask))

    def successors(self, state):
        return self.names_of(self.succ_masks[self.index(state)])

    def label3(self, state, prop):
        if prop not in self._tmask:
            raise KripkeError(f"{self.name}: unknown proposition {prop!r}")
        i = self.index(state)
        if self._tmask[prop] >> i & 1:
            return T3
        if self._mmask[prop] >> i & 1:
            return M3
        return F3

    def true_mask(self, prop):
        if prop not in self._tmask:
            raise KripkeError(f"{self.name}: unknown proposition {prop!r}")
        return self._tmask[prop]

    def maybe_mask(self, prop):
        if prop not in self._mmask:
            raise KripkeError(f"{self.name}: unknown proposition {prop!r}")
        return self._mmask[prop]

    @property
    def is_classical(self):
        return all(m == 0 for m in self._mmask.values())

    def labels_of(self, state):
        return {p: self.label3(state, p) for p in self.props}

    def predecessors(self):
        """Indices of the predecessors of each state, ascending; built on the
        first call and shared by every later caller (do not mutate)."""
        if self._pred is None:
            pred = [[] for _ in range(self.n)]
            index = self._index
            for s, t in self.trans:
                pred[index[t]].append(index[s])
            self._pred = pred
        return self._pred

    def pre(self, mask):
        """States with a successor in mask; pre(full) = full since transitions are total."""
        if not mask or mask == self.full_mask:
            return mask
        pred = self.predecessors()
        out = 0
        for j in mask_members(mask):
            for i in pred[j]:
                out |= 1 << i
        return out

    def reachable_mask(self, start_mask=None):
        """States reachable from start_mask (default: init); each is expanded once."""
        m = self.init_mask if start_mask is None else start_mask
        frontier = mask_members(m)
        while frontier:
            new = self.succ_masks[frontier.pop()] & ~m
            m |= new
            frontier.extend(mask_members(new))
        return m

    # -- equality -----------------------------------------------------------

    def _content(self):
        return (
            tuple(sorted(self.props)),
            self.states,
            frozenset(self.init),
            frozenset(self.trans),
            tuple(tuple(sorted(self.labels_of(s).items(), key=lambda kv: kv[0])) for s in self.states),
        )

    def __eq__(self, other):
        if not isinstance(other, KripkeStructure):
            return NotImplemented
        return self.name == other.name and self._content() == other._content()

    def __hash__(self):
        return hash((self.name, self.states, frozenset(self.trans)))

    def __repr__(self):
        return f"<KripkeStructure {self.name}: {self.n} states, {len(self.trans)} transitions>"


def structurally_equal(k1, k2):
    """Identical states, labels, transitions, and inits; names ignored."""
    return k1._content() == k2._content()


# ---------------------------------------------------------------------------
# .kr format


def parse_kripke(text):
    name = None
    props = []
    init = []
    states = []
    labels = {}
    trans = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("kripke"):
            name = line[len("kripke"):].strip()
            if not name:
                raise KripkeError(f"line {lineno}: missing structure name")
        elif line.startswith("props:"):
            props = line[len("props:"):].split()
        elif line.startswith("init:"):
            init = line[len("init:"):].split()
        elif line.startswith("state"):
            head, _, rest = line[len("state"):].partition(":")
            state = head.strip()
            if not state:
                raise KripkeError(f"line {lineno}: missing state name")
            if state in labels:
                raise KripkeError(f"line {lineno}: duplicate state {state!r}")
            states.append(state)
            assignment = {}
            for item in rest.split():
                if item.endswith("=M"):
                    assignment[item[:-2]] = M3
                elif item.startswith("-"):
                    assignment[item[1:]] = F3
                else:
                    assignment[item] = T3
            labels[state] = assignment
        elif line.startswith("trans:"):
            pair = line[len("trans:"):].split()
            if len(pair) != 2:
                raise KripkeError(f"line {lineno}: expected 'trans: FROM TO'")
            trans.append((pair[0], pair[1]))
        else:
            raise KripkeError(f"line {lineno}: unrecognized directive {line.split()[0]!r}")
    if name is None:
        raise KripkeError("missing 'kripke NAME' header")
    return KripkeStructure(name, props, states, init, trans, labels)


def render_kripke(k):
    lines = [f"kripke {k.name}", "props: " + " ".join(k.props), "init: " + " ".join(k.init)]
    for s in k.states:
        items = []
        for p in k.props:
            v = k.label3(s, p)
            if v is T3:
                items.append(p)
            elif v is M3:
                items.append(f"{p}=M")
        lines.append(f"state {s}:" + (" " + " ".join(items) if items else ""))
    for s, t in k.trans:
        lines.append(f"trans: {s} {t}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Constructions


def compose_sync(k1, k2):
    """Parallel synchronous composition; proposition sets must be disjoint."""
    overlap = set(k1.props) & set(k2.props)
    if overlap:
        raise KripkeError(f"composition requires disjoint propositions, shared: {sorted(overlap)}")
    states = [f"({s},{t})" for s in k1.states for t in k2.states]
    init = [f"({s},{t})" for s in k1.init for t in k2.init]
    labels = {}
    for s in k1.states:
        ls = k1.labels_of(s)
        for t in k2.states:
            labels[f"({s},{t})"] = {**ls, **k2.labels_of(t)}
    trans = []
    for s, s2 in k1.trans:
        for t, t2 in k2.trans:
            trans.append((f"({s},{t})", f"({s2},{t2})"))
    return KripkeStructure(f"{k1.name}||{k2.name}", k1.props + k2.props, states, init, trans, labels)


def chi(prop="x"):
    """The two-state free-variable structure: all transitions, both states initial."""
    s0, s1 = f"{prop}0", f"{prop}1"
    name = "chi" if prop == "x" else f"chi_{prop}"
    return KripkeStructure(
        name,
        (prop,),
        (s0, s1),
        (s0, s1),
        [(s0, s0), (s0, s1), (s1, s0), (s1, s1)],
        {s0: {prop: False}, s1: {prop: True}},
    )


def duplicate_m(k, m):
    """Duplicate every state m times; transitions ignore the copy index."""
    if m < 1:
        raise KripkeError("duplication count must be at least 1")
    states = [f"({s},{i})" for s in k.states for i in range(m)]
    init = [f"({s},{i})" for s in k.init for i in range(m)]
    labels = {f"({s},{i})": k.labels_of(s) for s in k.states for i in range(m)}
    trans = [
        (f"({s},{i})", f"({t},{j})")
        for s, t in k.trans
        for i in range(m)
        for j in range(m)
    ]
    return KripkeStructure(f"{k.name}^({m})", k.props, states, init, trans, labels)


def remove_prop(k, prop):
    """Drop one proposition; everything else is untouched."""
    if prop not in k.props:
        raise KripkeError(f"{k.name}: cannot remove absent proposition {prop!r}")
    props = tuple(p for p in k.props if p != prop)
    labels = {s: {p: v for p, v in k.labels_of(s).items() if p != prop} for s in k.states}
    return KripkeStructure(k.name, props, k.states, k.init, k.trans, labels)


class _XVariants(Sequence):
    """The 2^|S| ways of adding `prop` to k with a boolean labeling, as a lazy
    sequence: item `mask` labels prop true on the states in mask and is named
    k.name^(mask+1).  Indexing builds that one variant, which shares k's
    predecessor lists."""

    def __init__(self, k, prop):
        if prop in k.props:
            raise KripkeError(f"{k.name}: proposition {prop!r} already present")
        self.k = k
        self.prop = prop

    def __len__(self):
        return 1 << self.k.n

    def __getitem__(self, mask):
        if isinstance(mask, slice):
            return [self[i] for i in range(*mask.indices(len(self)))]
        if mask < 0:
            mask += len(self)
        if not 0 <= mask < len(self):
            raise IndexError("x-variant index out of range")
        k, prop = self.k, self.prop
        labels = {}
        for i, s in enumerate(k.states):
            ls = dict(k.labels_of(s))
            ls[prop] = bool(mask >> i & 1)
            labels[s] = ls
        variant = KripkeStructure(f"{k.name}^{mask + 1}", k.props + (prop,), k.states, k.init, k.trans, labels)
        variant._pred = k.predecessors()  # same states and transitions as k
        return variant


def x_variants(k, prop):
    """All 2^|S| ways of adding `prop` with a boolean labeling (a lazy _XVariants)."""
    return _XVariants(k, prop)


def restrict_init(k, inits):
    """Same structure with a smaller set of initial states."""
    labels = {s: k.labels_of(s) for s in k.states}
    return KripkeStructure(f"{k.name}@{','.join(inits)}", k.props, k.states, inits, k.trans, labels)


def reachable_part(k):
    """Substructure on the states reachable from the initial ones."""
    keep = set(k.names_of(k.reachable_mask()))
    states = [s for s in k.states if s in keep]
    trans = [(s, t) for s, t in k.trans if s in keep and t in keep]
    labels = {s: k.labels_of(s) for s in states}
    return KripkeStructure(k.name, k.props, states, k.init, trans, labels)


def is_deterministic(k):
    """Single initial state and one successor per reachable state."""
    if len(k.init) != 1:
        return False
    reach = k.reachable_mask()
    for i in range(k.n):
        if reach >> i & 1 and bin(k.succ_masks[i]).count("1") != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Unrolling maps (regular x-variants of computation trees)


@dataclass
class UnrollingMap:
    source: KripkeStructure
    target: KripkeStructure
    mapping: dict


def validate_unrolling_map(u, x):
    """Check that u certifies its source as a regular x-variant of T(target).

    Raises KripkeError for ill-formed input (proposition sets, map domain);
    returns False when an unrolling condition fails.
    """
    src, tgt, h = u.source, u.target, u.mapping
    if set(src.props) != set(tgt.props) | {x} or x in tgt.props:
        raise KripkeError(f"expected props(source) = props(target) + {{{x}}}")
    if set(h) != set(src.states) or not set(h.values()) <= set(tgt.states):
        raise KripkeError("unrolling map must map every source state to a target state")
    for s in src.init:
        if h[s] not in tgt.init:
            return False
    for s in src.states:
        for p in tgt.props:
            if src.label3(s, p) != tgt.label3(h[s], p):
                return False
        succ = src.successors(s)
        image = [h[t] for t in succ]
        if len(set(image)) != len(image) or set(image) != set(tgt.successors(h[s])):
            return False
    return True


# ---------------------------------------------------------------------------
# Isomorphism (used to compare constructions against fixtures)


def isomorphic(k1, k2):
    """A label/transition/init preserving bijection, or None."""
    if set(k1.props) != set(k2.props) or k1.n != k2.n or len(k1.init) != len(k2.init):
        return None
    if len(k1.trans) != len(k2.trans):
        return None

    def sig(k, s):
        i = k.index(s)
        return (
            tuple(sorted((p, k.label3(s, p).value) for p in k.props)),
            bin(k.succ_masks[i]).count("1"),
            s in k.init,
        )

    candidates = {s: [t for t in k2.states if sig(k2, t) == sig(k1, s)] for s in k1.states}
    order = sorted(k1.states, key=lambda s: len(candidates[s]))
    mapping = {}
    used = set()
    trans1 = set(k1.trans)
    trans2 = set(k2.trans)

    def ok(s, t):
        for s2, t2 in mapping.items():
            if ((s, s2) in trans1) != ((t, t2) in trans2):
                return False
            if ((s2, s) in trans1) != ((t2, t) in trans2):
                return False
        if ((s, s) in trans1) != ((t, t) in trans2):
            return False
        return True

    def search(idx):
        if idx == len(order):
            return True
        s = order[idx]
        for t in candidates[s]:
            if t in used or not ok(s, t):
                continue
            mapping[s] = t
            used.add(t)
            if search(idx + 1):
                return True
            del mapping[s]
            used.discard(t)
        return False

    if search(0):
        return dict(mapping)
    return None


# ---------------------------------------------------------------------------
# Fixture corpus


FIXTURE_NAMES = ("L", "M", "N", "O", "P", "Q", "U", "ezU", "V", "Valpha", "chi")


def load_fixture(name):
    if name.endswith(".kr"):
        name = name[:-3]
    if name not in FIXTURE_NAMES:
        raise KripkeError(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")
    text = resources.files("vacmc").joinpath(f"fixtures/{name}.kr").read_text()
    return parse_kripke(text)
