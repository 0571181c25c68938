"""Kripke structures, the .kr text format, and structure constructions.

Structures are immutable after construction.  The graph is held as index
lists: `succ[i]` lists the successors of state i in ascending order.  The
predecessor lists, the sorted name pairs `trans` and the per-state
successor bitmasks `succ_masks` are derived from it on first use.  State
sets are integer bitmasks over the state tuple, and labels are one "true"
and one "maybe" bitmask per proposition (classical structures simply never
use maybe).  Masks are built from flags or indices in time linear in the
number of states; ORing bits one by one into an n-bit int is quadratic.

The parser and `KripkeStructure(...)` both hand index-level columns to one
checked builder, `_build`.  The parser reads a trailing run of lines that are
each exactly 'trans: FROM TO' (the layout `render_kripke` writes) with one
`str.split`, and the lines before it one by one.

`parse_kripke` holds the last `_HOLD` texts it parsed and the structures it
built, under the hold policy of `formula.parse_formula` (`formula.Held`).  A
repeat load of a held text builds nothing: it gets a new structure that
shares the held one's parts, which is sound only because structures are
immutable.  The new structure has its own state tuple, since a set atom's home
is told apart by the identity of its `states`.  Predecessor lists of any load
of a held text are built on the held structure, so all its loads share them.
"""

import gc
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, wraps
from importlib import resources
from itertools import compress

from .errors import KripkeError
from .formula import Held
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
    """The bitmask of a sized collection of state indices, each below n.
    Each OR of one bit costs the length of the mask built so far and a pass
    over flags costs n, so a few indices are ORed whatever n is."""
    if n <= _SHORT or len(indices) < min(n >> 5, _SHORT):
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
        states = tuple(states)
        index = {s: i for i, s in enumerate(states)}
        columns = {}
        for s, assignment in labels.items():
            i = index.get(s)
            if i is None:
                columns.setdefault((None, s), [])
                continue
            for p, v in assignment.items():
                columns.setdefault((p, T3 if v is True or v is T3 else M3 if v is M3 else F3), []).append(i)
        self._build(name, tuple(props), states, index, init, trans, columns)

    def _build(self, name, props, states, index, init, trans, columns):
        """self, from the states and their index, (source, target) name pairs
        and, keyed (proposition, T3 | M3 | F3) in order of first mention, the
        indices of the states so labelled; a key (None, s) labels the
        undeclared state s.  Checked in this order, the first defect raised:
        names, initial states, transitions, successors, labels."""
        n = len(states)
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

        tmask, mmask = dict.fromkeys(props, 0), dict.fromkeys(props, 0)
        for (p, value), col in columns.items():
            if p is None:
                raise KripkeError(f"{name}: labels for undeclared state {value!r}")
            if p not in tmask:
                raise KripkeError(f"{name}: undeclared proposition {p!r} on state {states[col[0]]!r}")
            if value is T3:
                tmask[p] = indices_mask(col, n)
            elif value is M3:
                mmask[p] = indices_mask(col, n)
        return self._set(name, props, states, index, init, succ, tmask, mmask)

    def _set(self, name, props, states, index, init, succ, tmask, mmask, pred=None):
        self.name = name
        self.props = props
        self.states = states
        self._index = index
        self.n = len(states)
        self.full_mask = (1 << self.n) - 1
        self.init = init
        self.init_mask = indices_mask([index[s] for s in init], self.n)
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
        return indices_mask(list(map(self.index, names)), self.n)

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
        first call and shared by every later caller (do not mutate).  They
        are built on the held structure of a loaded text, so every load of
        the text shares them."""
        if self._pred is None:
            held = next((k for k in _held.values() if k.succ is self.succ), self)
            if held._pred is None:
                held._pred = _predecessor_lists(self.succ)
            self._pred = held._pred
        return self._pred

    @cached_property
    def _m(self):
        """The number of transitions."""
        return sum(map(len, self.succ))

    def pre(self, mask):
        """States with a successor in mask, read from the smaller side of mask.

        Transitions are total, so with out = full ^ mask, pre(mask) is full
        less the states whose successors all lie in out: a count, per
        predecessor of out, of its successors in out, against its out-degree.
        With d = m/n the mean out-degree, the mask side reads about |mask|·d
        predecessor entries and the out side |out|·d, plus a count per
        candidate: about |out|·(1+d).  The out side is taken when it reads
        fewer, |out|·(n+m) < |mask|·m.  So a mask that is full but for a few
        states costs what those states do, not n.  As m >= n, that holds
        whenever 2·|out| < |mask| and never when |out| >= |mask|; m is
        counted only for a mask between the two.
        """
        if not mask or mask == self.full_mask:
            return mask
        n, pred, size = self.n, self.predecessors(), mask.bit_count()
        out = n - size
        if out < size and (2 * out < size or out * (n + self._m) < size * self._m):
            hits = {}
            for j in mask_members(self.full_mask ^ mask):
                for i in pred[j]:
                    hits[i] = hits.get(i, 0) + 1
            succ = self.succ
            return self.full_mask ^ indices_mask([i for i, c in hits.items() if c == len(succ[i])], n)
        return indices_mask([i for j in mask_members(mask) for i in pred[j]], n)

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
        return hash((self.name, self.states))

    def __repr__(self):
        return f"<KripkeStructure {self.name}: {self.n} states, {sum(map(len, self.succ))} transitions>"


def structurally_equal(k1, k2):
    """Identical states, labels, transitions, and inits; names ignored."""
    return k1._content() == k2._content()


# ---------------------------------------------------------------------------
# .kr format


_HOLD = 3  # a model K, and the K^(2) and K/~ files that queries compare it with
_held = Held(_HOLD)  # text -> the structure built from it


def parse_kripke(text):
    """The structure that the .kr text describes; a trailing run of exact
    'trans: FROM TO' lines read in bulk gives the structure, or the first
    error and its line number, of reading each line.  The last `_HOLD` distinct
    texts parsed and their structures are held, least recently loaded first.
    Loading a held text again moves it to the newest end and builds no
    structure: it returns a new one through `_of` that shares the held one's
    immutable parts (index, successor lists, label masks, and the
    predecessor lists once a check on any load has built them).  Its state
    tuple is a new object, so identity tests on `states` (a set atom's home)
    tell the two loads apart as they tell two parses apart.  Any other text
    first drops the oldest held structure when `_HOLD` are held, so that at
    most `_HOLD` are alive, its own included, while it builds; a text that
    fails to parse is not held."""
    return _held.lookup(text, _parse, _share)


def _share(k):
    return KripkeStructure._of(k.name, k.props, (*k.states,), k._index, k.init, k.succ,
                               k._tmask, k._mmask, k._pred)


@_gc_paused
def _parse(text):
    """The run from the first trans: line after the last state line, when
    _trans_run reads it; the lines before it, or all lines, by _read_lines."""
    start = text.find("\ntrans: ", text.rfind("\nstate") + 1) + 1
    run = _trans_run(text, start) if start else None
    if run is None:
        return _read_lines(text.splitlines(), (), ())
    return _read_lines(text[:start].splitlines(), *run)


def _trans_run(text, start):
    """The sources and the targets of the L lines of text[start:], when each
    is exactly 'trans: FROM TO\n'; else None.  Counts prove that form: the
    text ends in a newline, each line starts with 'trans: ' (start follows a
    newline, and so does every other 'trans: '), no '#' and no other
    'trans:' occur, and the 3L tokens have 'trans:' at every third place,
    so each line splits into 'trans:' and two names.  Outside the tokens
    there are only the L newlines and 2L spaces: no tab, CR or character
    that splitlines breaks a line at and split takes for a space."""
    lines = text.count("\n", start)
    if (text[-1] != "\n" or text.count("\ntrans: ", start - 1) != lines or text.find("#", start) >= 0
            or text.count("trans:", start) != lines or text.count(" ", start) != 2 * lines):
        return None
    tokens = text[start:].split()
    if (len(tokens) != 3 * lines or tokens[::3].count("trans:") != lines
            or len("".join(tokens)) != len(text) - start - 3 * lines):
        return None
    return tokens[1::3], tokens[2::3]


def _item(item):
    """The proposition and value of a label item of a state line: p, -p or p=M."""
    if item.endswith("=M"):
        return item[:-2], M3
    if item.startswith("-"):
        return item[1:], F3
    return item, T3


def _read_lines(lines, run_sources, run_targets):
    """The structure of the .kr lines, with the transitions run_sources[k] ->
    run_targets[k] after theirs.  One pass over the lines, the most frequent
    directives (state, then trans:) tested first.  A directive glued to its
    name ("kripkeK", "states0:"), a state line without its colon, a second
    header line, or a proposition given twice on a state is an error."""
    name = props = init = None
    index = {}  # state -> its index, in declaration order
    labels = {}  # label item -> the indices of the states it is on, in order of first mention
    sources, targets = [], []  # one list each: no pair object per transition
    add_source, add_target = sources.append, targets.append
    for lineno, line in enumerate(lines, start=1):
        if "#" in line:
            line = line[:line.index("#")]
        line = line.strip()
        if line[:5] == "state":
            head, colon, rest = line[5:].partition(":")
            state = head.strip()
            if not state:
                raise KripkeError(f"line {lineno}: missing state name")
            if not head[0].isspace():
                raise KripkeError(f"line {lineno}: unrecognized directive {line.split()[0]!r}")
            if not colon:
                raise KripkeError(f"line {lineno}: expected 'state NAME: ...'")
            if state in index:
                raise KripkeError(f"line {lineno}: duplicate state {state!r}")
            i = index[state] = len(index)
            items = rest.split()
            for item in items:
                labels.setdefault(item, []).append(i)
            if len(items) > 1:
                given = [_item(item)[0] for item in items]
                if len(set(given)) < len(given):
                    prop = next(p for j, p in enumerate(given) if p in given[:j])
                    raise KripkeError(f"line {lineno}: proposition {prop!r} given twice on state {state!r}")
        elif line[:6] == "trans:":
            pair = line[6:].split()
            if len(pair) != 2:
                raise KripkeError(f"line {lineno}: expected 'trans: FROM TO'")
            s, t = pair
            add_source(s)
            add_target(t)
        elif not line:
            continue
        elif line[:6] == "kripke" and not line[6:7].strip():
            if name is not None:
                raise KripkeError(f"line {lineno}: second 'kripke' line")
            name = line[6:].strip()
            if not name:
                raise KripkeError(f"line {lineno}: missing structure name")
        elif line.startswith("props:"):
            if props is not None:
                raise KripkeError(f"line {lineno}: second 'props:' line")
            props = line[6:].split()
        elif line.startswith("init:"):
            if init is not None:
                raise KripkeError(f"line {lineno}: second 'init:' line")
            init = line[5:].split()
        else:
            raise KripkeError(f"line {lineno}: unrecognized directive {line.split()[0]!r}")
    if name is None:
        raise KripkeError("missing 'kripke NAME' header")
    sources += run_sources
    targets += run_targets
    columns = {_item(item): col for item, col in labels.items()}
    return object.__new__(KripkeStructure)._build(name, tuple(props or ()), tuple(index), index, init or (),
                                                  zip(sources, targets), columns)


def _unreadable(names, banned):
    """The first of names that is empty or holds a character for which
    str.isspace is true (str.split splits there) or one of banned, or None.
    Tested on the names joined, at C speed, before any name alone."""
    text = "".join(names)
    if not names or all(names) and text.split() == [text] and not any(c in text for c in banned):
        return None
    return next(s for s in names if s.split() != [s] or any(c in s for c in banned))


def render_kripke(k):
    """The .kr text of k.  A name that parse_kripke would not read back is
    refused with a KripkeError naming it: any name that is empty or holds a
    space character or '#', a state name with ':' (a state line's first
    colon ends the name), and a proposition name that starts with '-' or
    ends in '=M' (the label items -p and p=M are values of p)."""
    edge = next((p for p in k.props if p.startswith("-") or p.endswith("=M")), None)
    for kind, bad in (("structure name", _unreadable((k.name,), "#")),
                      ("proposition", _unreadable(k.props, "#") if edge is None else edge),
                      ("state", _unreadable(k.states, "#:"))):
        if bad is not None:
            raise KripkeError(f"{k.name}: {kind} {bad!r} cannot be written to .kr text")
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


def _product(k1, k2):
    """The state names, index, initial names and successor rows of k1 || k2."""
    n2 = k2.n
    states = tuple(f"({s},{t})" for s in k1.states for t in k2.states)
    index = {s: i for i, s in enumerate(states)}
    if len(index) != len(states):  # names with commas can collide
        raise KripkeError(f"{k1.name}||{k2.name}: duplicate state names")
    init = tuple(f"({s},{t})" for s in k1.init for t in k2.init)
    rows2 = k2.succ
    succ = [[i * n2 + j for i in row1 for j in row2] for row1 in k1.succ for row2 in rows2]
    return states, index, init, succ


def compose_sync(k1, k2):
    """Parallel synchronous composition; proposition sets must be disjoint.

    State (s, t) has index i*|S2| + j for s = states[i] of k1 and t =
    states[j] of k2, so the successors of (s, t), taken in k1-then-k2
    order, are ascending already.  With a complete k2 whose state names have
    no comma (chi, for one) the product is a LaneProduct.
    """
    overlap = set(k1.props) & set(k2.props)
    if overlap:
        raise KripkeError(f"composition requires disjoint propositions, shared: {sorted(overlap)}")
    name = f"{k1.name}||{k2.name}"
    n1, n2 = k1.n, k2.n
    masks = []
    for own1, own2 in ((k1._tmask, k2._tmask), (k1._mmask, k2._mmask)):
        mask = {p: _spread(m, n2) for p, m in own1.items()}
        mask.update((p, _tile(m, n2, n1)) for p, m in own2.items())
        masks.append(mask)
    # with no comma in t, the last comma of "(s,t)" is t's: no two product names collide
    if all(len(row) == n2 for row in k2.succ) and not any("," in t for t in k2.states):
        return LaneProduct(name, k1, k2, *masks)
    return KripkeStructure._of(name, k1.props + k2.props, *_product(k1, k2), *masks)


class LaneProduct(KripkeStructure):
    """k1 || k2 for a complete k2 (K||chi, K^(m)): k1's graph in m = |k2|
    lanes.  State (s, t) is bit i*m + j, and its successors are every lane
    of s's successors, so EX of a mask is k1's EX of its collapse (bit i:
    some lane of state i), spread over the lanes; mc reduces E[l U r] and
    E[l R r] the same way.  The state names, index, initial names and
    successor rows are built together when one of them is first read (by
    the tableau, bisimulation, sweeps, witnesses, equality or rendering)."""

    _pred = None  # set on the instance once predecessors() builds them

    def __init__(self, name, k1, k2, tmask, mmask):
        self.name, self.props, self.n = name, k1.props + k2.props, k1.n * k2.n
        self.k1, self._k2, self.lanes = k1, k2, k2.n
        self.full_mask = (1 << self.n) - 1
        self.init_mask = self.spread(k1.init_mask) & _tile(k2.init_mask, k2.n, k1.n)
        self._tmask, self._mmask = tmask, mmask

    def _parts(self, part):
        states, index, init, succ = _product(self.k1, self._k2)
        vars(self).update(states=states, _index=index, init=init, succ=succ)
        return vars(self)[part]

    states = cached_property(lambda self: self._parts("states"))
    _index = cached_property(lambda self: self._parts("_index"))
    init = cached_property(lambda self: self._parts("init"))
    succ = cached_property(lambda self: self._parts("succ"))

    def spread(self, mask):
        return _spread(mask, self.lanes)

    def collapse(self, mask):
        """The states of k1 with some lane in mask."""
        m, folded = self.lanes, mask
        for shift in range(1, m):
            folded |= mask >> shift
        return int(format(folded, f"0{self.n}b")[m - 1::m], 2)

    def pre(self, mask):
        if not mask or mask == self.full_mask:
            return mask
        return self.spread(self.k1.pre(self.collapse(mask)))


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
    """K^(m): every state copied m times, transitions ignoring the copy index.
    It is the LaneProduct K || C_m for C_m the complete structure on states
    0 .. m-1 with no propositions: copy i of states[s] is (s,i) at index
    s*m + i, and its names and rows are built only when read."""
    if m < 1:
        raise KripkeError("duplication count must be at least 1")
    states = tuple(map(str, range(m)))
    complete = KripkeStructure._of(f"C{m}", (), states, dict(zip(states, range(m))), states,
                                   [list(range(m))] * m, {}, {})
    tmask, mmask = ({p: _spread(mask, m) for p, mask in masks.items()} for masks in (k._tmask, k._mmask))
    return LaneProduct(f"{k.name}^({m})", k, complete, tmask, mmask)


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
    backtracking over k1's states without recursion.  Each connected part is
    taken breadth-first from its state with the fewest candidates, so every
    later state has a neighbour mapped before it, and its candidates are that
    neighbour's image's neighbours; a candidate is one of k2's states with the
    same signature whose edges to the states mapped so far match."""
    if set(k1.props) != set(k2.props) or k1.n != k2.n or len(k1.init) != len(k2.init):
        return None
    if sum(map(len, k1.succ)) != sum(map(len, k2.succ)):
        return None
    props = sorted(k1.props)
    sigs1, sigs2 = _signatures(k1, props), _signatures(k2, props)
    by_sig = {}
    for j, sig in enumerate(sigs2):
        by_sig.setdefault(sig, []).append(j)
    succ1, pred1, succ2, pred2 = k1.succ, k1.predecessors(), k2.succ, k2.predecessors()
    # via[i]: (a, rows) for the neighbour a that put i in the order, where
    # rows[image[a]] lists i's candidates; None for the first of a part
    order, via = [], [None] * k1.n
    placed = bytearray(k1.n)
    for root in sorted(range(k1.n), key=lambda i: len(by_sig.get(sigs1[i], ()))):
        if placed[root]:
            continue
        placed[root] = 1
        head = len(order)
        order.append(root)
        while head < len(order):
            a = order[head]
            head += 1
            for rows1, rows2 in ((succ1, succ2), (pred1, pred2)):
                for i in rows1[a]:
                    if not placed[i]:
                        placed[i] = 1
                        via[i] = a, rows2
                        order.append(i)
    # every candidate before its signature's cursor is used, so the first of
    # a part starts there instead of rescanning them; a backtrack resets it
    cursor = dict.fromkeys(by_sig, 0)
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
        sig = sigs1[i]
        if image[i] >= 0:  # back from a dead end below: undo this state's choice
            used[image[i]] = cursor[sig] = 0
            image[i] = -1
        if via[i] is None:
            cands = by_sig.get(sig, ())
            c = tried[depth] or cursor.get(sig, 0)
        else:
            a, rows2 = via[i]
            cands, c = rows2[image[a]], tried[depth]
        while c < len(cands) and (used[cands[c]] or sigs2[cands[c]] != sig or not fits(i, cands[c])):
            c += 1
        if c == len(cands):
            tried[depth] = 0
            depth -= 1
        else:
            tried[depth] = c + 1
            image[i] = cands[c]
            used[cands[c]] = 1
            same = by_sig[sig]
            while cursor[sig] < len(same) and used[same[cursor[sig]]]:
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
