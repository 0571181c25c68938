"""Kripke structures, the .kr text format, and structure constructions.

Structures are immutable after construction.  The graph is held as index
lists: `succ[i]` lists the successors of state i in ascending order.  The
predecessor lists, the sorted name pairs `trans` and the per-state
successor bitmasks `succ_masks` are derived from it on first use.  State
sets are integer bitmasks over the state tuple, and labels are one "true"
and one "maybe" bitmask per proposition (classical structures simply never
use maybe).  Masks are built from flags or indices in time linear in the
number of states; ORing bits one by one into an n-bit int is quadratic.
"""

import gc
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, wraps
from importlib import resources
from itertools import compress

from .errors import KripkeError
from .kleene import F3, M3, T3


_TO_BITS = bytes.maketrans(b"01", b"\0\1")
_FROM_BITS = bytes.maketrans(b"\0\1", b"01")
_SHORT = 256  # up to this many states ORing single bits costs about what a pass over flags does


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


def mask_flags(mask, n):
    """A bytearray of n flags, flag i set (1) when bit i of mask is; mask < 2^n."""
    flags = bytearray(bin(mask)[:1:-1].encode().translate(_TO_BITS))
    flags += bytes(n - len(flags))
    return flags


def flags_mask(flags):
    """The bitmask with bit i set when flags[i] is 1 (flags hold 0s and 1s)."""
    return int(flags[::-1].translate(_FROM_BITS), 2)


def indices_mask(indices, n):
    """The bitmask of the given state indices, each below n."""
    if n <= _SHORT:
        mask = 0
        for i in indices:
            mask |= 1 << i
        return mask
    flags = bytearray(n)
    for i in indices:
        flags[i] = 1
    return flags_mask(flags)


def _gc_paused(build):
    """build, run with the cyclic garbage collector paused.  For bulk builds of
    acyclic lists: the collections their allocations trigger rescan every
    live object, a cost that grows with the heap around the build."""

    @wraps(build)
    def run(*args):
        if not gc.isenabled():
            return build(*args)
        gc.disable()
        try:
            return build(*args)
        finally:
            gc.enable()

    return run


@_gc_paused
def _predecessor_lists(succ):
    pred = [[] for _ in succ]
    for i, row in enumerate(succ):
        for j in row:
            pred[j].append(i)
    return pred


def _initial(name, init, index):
    """init without repeats, each an indexed state."""
    init = tuple(dict.fromkeys(init))
    if not init:
        raise KripkeError(f"{name}: empty set of initial states")
    for s in init:
        if s not in index:
            raise KripkeError(f"{name}: undeclared initial state {s!r}")
    return init


class KripkeStructure:
    """Finite transition system with total transitions and 3-valued labels."""

    def __init__(self, name, props, states, init, trans, labels):
        props, states = tuple(props), tuple(states)
        n = len(states)
        index = {s: i for i, s in enumerate(states)}
        if len(index) != n:
            raise KripkeError(f"{name}: duplicate state names")
        if len(set(props)) != len(props):
            raise KripkeError(f"{name}: duplicate proposition names")
        init = _initial(name, init, index)

        succ = [[] for _ in range(n)]
        try:
            for s, t in trans:
                succ[index[s]].append(index[t])
        except KeyError:
            raise KripkeError(f"{name}: transition on undeclared state ({s!r}, {t!r})") from None
        if not all(succ):
            raise KripkeError(f"{name}: state {states[succ.index([])]!r} has no outgoing transition")
        succ = [row if len(row) == 1 else sorted(set(row)) for row in succ]

        true = {p: [] for p in props}
        maybe = {p: [] for p in props}
        for s, assignment in labels.items():
            i = index.get(s)
            if i is None:
                raise KripkeError(f"{name}: labels for undeclared state {s!r}")
            for p, v in assignment.items():
                if p not in true:
                    raise KripkeError(f"{name}: undeclared proposition {p!r} on state {s!r}")
                if v is True or v is T3:
                    true[p].append(i)
                elif v is M3:
                    maybe[p].append(i)
        self._set(name, props, states, index, init, succ,
                  {p: indices_mask(col, n) for p, col in true.items()},
                  {p: indices_mask(col, n) for p, col in maybe.items()})

    def _set(self, name, props, states, index, init, succ, tmask, mmask, pred=None):
        self.name = name
        self.props = props
        self.states = states
        self._index = index
        self.n = len(states)
        self.full_mask = (1 << self.n) - 1
        self.init = init
        self.init_mask = indices_mask(map(index.__getitem__, init), self.n)
        self.succ = succ
        self._pred = pred
        self._tmask = tmask
        self._mmask = mmask
        return self

    @classmethod
    def _of(cls, name, props, states, index, init, succ, tmask, mmask, pred=None):
        """A structure from checked index-level parts, without __init__'s checks."""
        return object.__new__(cls)._set(name, props, states, index, init, succ, tmask, mmask, pred)

    # -- basic queries ------------------------------------------------------

    def index(self, state):
        try:
            return self._index[state]
        except KeyError:
            raise KripkeError(f"{self.name}: unknown state {state!r}") from None

    def mask_of(self, names):
        return indices_mask(map(self.index, names), self.n)

    def names_of(self, mask):
        states = self.states
        return tuple(states[i] for i in mask_members(mask))

    def successors(self, state):
        states = self.states
        return tuple(states[j] for j in self.succ[self.index(state)])

    @cached_property
    def trans(self):
        """The transitions as (source, target) name pairs, by source then target index."""
        states = self.states
        return tuple((states[i], states[j]) for i, row in enumerate(self.succ) for j in row)

    @cached_property
    def succ_masks(self):
        """The successors of each state as a bitmask (n bits per state: quadratic memory)."""
        return [indices_mask(row, self.n) for row in self.succ]

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
            self._pred = _predecessor_lists(self.succ)
        return self._pred

    def pre(self, mask):
        """States with a successor in mask; pre(full) = full since transitions are total."""
        if not mask or mask == self.full_mask:
            return mask
        pred = self.predecessors()
        return indices_mask([i for j in mask_members(mask) for i in pred[j]], self.n)

    def reachable_mask(self, start_mask=None):
        """States reachable from start_mask (default: init); each is expanded once."""
        m = self.init_mask if start_mask is None else start_mask
        seen = mask_flags(m, self.n)
        todo = mask_members(m)
        succ = self.succ
        for i in todo:
            for j in succ[i]:
                if not seen[j]:
                    seen[j] = 1
                    todo.append(j)
        return flags_mask(seen)

    # -- equality -----------------------------------------------------------

    def _content(self):
        """States, initial set, successor lists and each proposition's masks:
        equal exactly when the name-level transitions and labels are."""
        return (
            self.states,
            frozenset(self.init),
            self.succ,
            {p: (self._tmask[p], self._mmask[p]) for p in self.props},
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


@_gc_paused
def parse_kripke(text):
    """One pass over the lines, the most frequent directive (trans:) tested first."""
    name = None
    props = []
    init = []
    labels = {}  # state -> assignment, in declaration order
    sources, targets = [], []  # one list each: no pair object per transition
    add_source, add_target = sources.append, targets.append
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line[:line.index("#")]
        line = line.strip()
        if line[:6] == "trans:":
            pair = line[6:].split()
            if len(pair) != 2:
                raise KripkeError(f"line {lineno}: expected 'trans: FROM TO'")
            s, t = pair
            add_source(s)
            add_target(t)
        elif line[:5] == "state":
            head, _, rest = line[5:].partition(":")
            state = head.strip()
            if not state:
                raise KripkeError(f"line {lineno}: missing state name")
            if state in labels:
                raise KripkeError(f"line {lineno}: duplicate state {state!r}")
            # bools, not T3/F3: a dict holding only atomic values is left
            # untracked by the cyclic garbage collector
            assignment = labels[state] = {}
            for item in rest.split():
                if item.endswith("=M"):
                    assignment[item[:-2]] = M3
                elif item.startswith("-"):
                    assignment[item[1:]] = False
                else:
                    assignment[item] = True
        elif not line:
            continue
        elif line.startswith("kripke"):
            name = line[6:].strip()
            if not name:
                raise KripkeError(f"line {lineno}: missing structure name")
        elif line.startswith("props:"):
            props = line[6:].split()
        elif line.startswith("init:"):
            init = line[5:].split()
        else:
            raise KripkeError(f"line {lineno}: unrecognized directive {line.split()[0]!r}")
    if name is None:
        raise KripkeError("missing 'kripke NAME' header")
    return KripkeStructure(name, props, labels, init, zip(sources, targets), labels)


def render_kripke(k):
    lines = [f"kripke {k.name}", "props: " + " ".join(k.props), "init: " + " ".join(k.init)]
    n = k.n
    flags = [(p, mask_flags(k.true_mask(p), n), mask_flags(k.maybe_mask(p), n)) for p in k.props]
    for i, s in enumerate(k.states):
        items = [p if true[i] else f"{p}=M" for p, true, maybe in flags if true[i] or maybe[i]]
        lines.append(f"state {s}:" + (" " + " ".join(items) if items else ""))
    for s, t in k.trans:
        lines.append(f"trans: {s} {t}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Constructions


def _spread(mask, width):
    """Each bit i of mask widened to bits i*width .. i*width + width - 1."""
    return int(bin(mask)[2:].translate({48: "0" * width, 49: "1" * width}), 2)


def _tile(mask, width, count):
    """mask, below 2^width, repeated count times at width-bit offsets."""
    return int(format(mask, f"0{width}b") * count, 2)


def compose_sync(k1, k2):
    """Parallel synchronous composition; proposition sets must be disjoint.

    State (s, t) has index i*|S2| + j for s = states[i] of k1 and t =
    states[j] of k2, so the successors of (s, t), taken in k1-then-k2
    order, are ascending already.
    """
    overlap = set(k1.props) & set(k2.props)
    if overlap:
        raise KripkeError(f"composition requires disjoint propositions, shared: {sorted(overlap)}")
    name = f"{k1.name}||{k2.name}"
    n1, n2 = k1.n, k2.n
    states = tuple(f"({s},{t})" for s in k1.states for t in k2.states)
    index = {s: i for i, s in enumerate(states)}
    if len(index) != len(states):  # names with commas can collide
        raise KripkeError(f"{name}: duplicate state names")
    init = tuple(f"({s},{t})" for s in k1.init for t in k2.init)
    rows2 = k2.succ
    succ = [[i * n2 + j for i in row1 for j in row2] for row1 in k1.succ for row2 in rows2]
    masks = []
    for own1, own2 in ((k1._tmask, k2._tmask), (k1._mmask, k2._mmask)):
        mask = {p: _spread(m, n2) for p, m in own1.items()}
        mask.update((p, _tile(m, n2, n1)) for p, m in own2.items())
        masks.append(mask)
    return KripkeStructure._of(name, k1.props + k2.props, states, index, init, succ, *masks)


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
    """Duplicate every state m times; transitions ignore the copy index.

    Copy i of states[s] has index s*m + i, so each successor row, the
    copies of k's row in order, is ascending already; the m copies of a
    state share one row.
    """
    if m < 1:
        raise KripkeError("duplication count must be at least 1")
    states = tuple(f"({s},{i})" for s in k.states for i in range(m))
    index = {s: i for i, s in enumerate(states)}
    init = tuple(f"({s},{i})" for s in k.init for i in range(m))
    rows = [[t * m + j for t in row for j in range(m)] for row in k.succ]
    succ = [row for row in rows for _ in range(m)]
    tmask = {p: _spread(mask, m) for p, mask in k._tmask.items()}
    mmask = {p: _spread(mask, m) for p, mask in k._mmask.items()}
    return KripkeStructure._of(f"{k.name}^({m})", k.props, states, index, init, succ, tmask, mmask)


def remove_prop(k, prop):
    """Drop one proposition; everything else is untouched."""
    if prop not in k.props:
        raise KripkeError(f"{k.name}: cannot remove absent proposition {prop!r}")
    props = tuple(p for p in k.props if p != prop)
    return KripkeStructure._of(k.name, props, k.states, k._index, k.init, k.succ,
                               {p: k._tmask[p] for p in props}, {p: k._mmask[p] for p in props}, k._pred)


class LazySequence(Sequence):
    """`length` items, item i built by item(i) only when indexed."""

    def __init__(self, length, item):
        self._length, self._item = length, item

    def __len__(self):
        return self._length

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self._length))]
        if not -self._length <= i < self._length:
            raise IndexError("index out of range")
        return self._item(i % self._length)


def labelled(k, prop, mask, name=None):
    """k with `prop` added, true exactly on the states in mask, named `name`
    (by default k's own); it shares k's states, successor and predecessor lists."""
    return KripkeStructure._of(name or k.name, k.props + (prop,), k.states, k._index, k.init, k.succ,
                               {**k._tmask, prop: mask}, {**k._mmask, prop: 0}, k.predecessors())


def x_variants(k, prop):
    """All 2^|S| ways of adding `prop` with a boolean labeling, as a lazy
    sequence: item `mask` is labelled(k, prop, mask), named k.name^(mask+1)."""
    if prop in k.props:
        raise KripkeError(f"{k.name}: proposition {prop!r} already present")
    return LazySequence(1 << k.n, lambda mask: labelled(k, prop, mask, f"{k.name}^{mask + 1}"))


def restrict_init(k, inits):
    """Same structure with a smaller set of initial states; it shares k's
    states, labels and successor lists (and predecessor lists once built)."""
    name = f"{k.name}@{','.join(inits)}"
    return KripkeStructure._of(name, k.props, k.states, k._index, _initial(name, inits, k._index),
                               k.succ, k._tmask, k._mmask, k._pred)


def reachable_part(k):
    """Substructure on the states reachable from the initial ones, in k's
    order: the kept rows renumbered, each label mask compressed to them."""
    reach = k.reachable_mask()
    keep, kept = mask_members(reach), mask_flags(reach, k.n)
    renumber = dict(zip(keep, range(len(keep))))
    states = tuple(k.states[i] for i in keep)
    tmask, mmask = ({p: flags_mask(bytes(compress(mask_flags(m, k.n), kept))) for p, m in masks.items()}
                    for masks in (k._tmask, k._mmask))
    return KripkeStructure._of(k.name, k.props, states, {s: i for i, s in enumerate(states)}, k.init,
                               [[renumber[j] for j in k.succ[i]] for i in keep], tmask, mmask)


def is_deterministic(k):
    """Single initial state and one successor per reachable state."""
    if len(k.init) != 1:
        return False
    succ = k.succ
    return all(len(succ[i]) == 1 for i in mask_members(k.reachable_mask()))


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


def _signatures(k, props):
    """Each state's (true flags over props, maybe flags over props,
    out-degree, initial flag), from one pass over each mask."""
    n = k.n
    columns = [mask_flags(k._tmask[p], n) for p in props] + [mask_flags(k._mmask[p], n) for p in props]
    return list(zip(*columns, map(len, k.succ), mask_flags(k.init_mask, n)))


def isomorphic(k1, k2):
    """A label/transition/init preserving bijection, or None: depth-first
    backtracking over k1's states, fewest candidates first, without
    recursion; a candidate is one of k2's states with the same signature
    whose edges to the states mapped so far match."""
    if set(k1.props) != set(k2.props) or k1.n != k2.n or len(k1.init) != len(k2.init):
        return None
    if sum(map(len, k1.succ)) != sum(map(len, k2.succ)):
        return None
    props = sorted(k1.props)
    by_sig = {}
    for j, sig in enumerate(_signatures(k2, props)):
        by_sig.setdefault(sig, []).append(j)
    sigs = _signatures(k1, props)
    order = sorted(range(k1.n), key=lambda i: len(by_sig.get(sigs[i], ())))
    # every candidate before its signature's cursor is used, so a fresh search
    # depth starts there instead of rescanning them; a backtrack resets it
    cursor = dict.fromkeys(by_sig, 0)
    succ1, pred1, succ2, pred2 = k1.succ, k1.predecessors(), k2.succ, k2.predecessors()
    image = [-1] * k1.n  # k1 state -> its k2 state, or -1
    used = bytearray(k2.n)

    def fits(i, j):
        if (i in succ1[i]) != (j in succ2[j]):
            return False
        for rows1, rows2 in ((succ1, succ2), (pred1, pred2)):
            if {image[a] for a in rows1[i] if image[a] >= 0} != {b for b in rows2[j] if used[b]}:
                return False
        return True

    tried = [0] * k1.n  # candidates of order[depth] already tried; 0 on a fresh depth
    depth = 0
    while 0 <= depth < k1.n:
        i = order[depth]
        sig, cands = sigs[i], by_sig.get(sigs[i], ())
        if image[i] >= 0:  # back from a dead end below: undo this state's choice
            used[image[i]] = cursor[sig] = 0
            image[i] = -1
        c = tried[depth] or cursor.get(sig, 0)
        while c < len(cands) and (used[cands[c]] or not fits(i, cands[c])):
            c += 1
        if c == len(cands):
            tried[depth] = 0
            depth -= 1
        else:
            tried[depth] = c + 1
            image[i] = cands[c]
            used[cands[c]] = 1
            while cursor[sig] < len(cands) and used[cands[cursor[sig]]]:
                cursor[sig] += 1
            depth += 1
    if depth < 0:
        return None
    return {k1.states[i]: k2.states[image[i]] for i in order}


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
