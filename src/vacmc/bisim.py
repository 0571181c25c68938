"""Simulation and bisimulation over a chosen proposition set, and quotients.

Everything runs on state indices and bitmasks.  A relation between k1 and k2
is held as rows: rows[j] is the bitmask of the k1 states related to state j
of k2, and its (s, t) name pairs are built only when asked for.

Bisimulation is a partition, a block id per state of the disjoint union of
the two structures: signature refinement from the label classes over
`over`, where each round re-signs only the predecessors of states that
changed block (a chain of n states takes n rounds of O(1) work, not n
rounds over the whole union).  Simulation and the refinement order of
3-valued structures (three_valued.is_refinement) share one greatest-fixpoint
engine over rows, after Henzinger-Henzinger-Kopke: it re-examines only the
predecessors of a row that shrank.  Results replay against the definitions
(is_simulation / is_bisimulation), which the tests exercise.
"""

from collections.abc import Set
from itertools import chain

from .errors import KripkeError
from .kleene import F3, M3, T3
from .kripke import KripkeStructure, _gc_paused, _initial, flags_mask, mask_flags, mask_members


class Relation(Set):
    """Pairs (s, t) of states of two structures, named `left` and `right`.

    rows[j] is the bitmask of left states related to right state j.  A
    membership test reads one bit of a row; `pairs`, the frozenset of (s, t)
    name pairs, is built on first use.  `grouped` lists the pairs by left
    state without a pair object: right states with equal rows form one group
    (a bisimulation's block), whose right names are listed once and shared.
    """

    def __init__(self, k1, k2, rows):
        self.left, self.right = k1.name, k2.name
        self._k1, self._k2 = k1, k2
        self.rows = rows
        self._pairs = None

    @property
    def pairs(self):
        if self._pairs is None:
            names = self._k1.states
            self._pairs = frozenset(
                (names[i], t) for t, row in zip(self._k2.states, self.rows) for i in mask_members(row)
            )
        return self._pairs

    def __contains__(self, pair):
        return isinstance(pair, tuple) and len(pair) == 2 and self.related(*pair)

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return sum(row.bit_count() for row in self.rows)

    def __repr__(self):
        return f"<Relation {self.left} -> {self.right}: {len(self)} pairs>"

    def related(self, s, t):
        i, j = self._k1._index.get(s), self._k2._index.get(t)
        return i is not None and j is not None and self.rows[j] >> i & 1 == 1

    def grouped(self):
        """(s, ts) for each left state s related to some right state, in name
        order of s, with ts the right names related to s, in name order.  Right
        states are grouped by equal row: a left state in one group gets that
        group's list itself, shared by every left state of the group, and one
        in several (which simulation rows allow) gets their names merged and
        sorted."""
        left, right = self._k1.states, self._k2.states
        groups = {}
        for j in sorted(range(len(right)), key=right.__getitem__):
            if self.rows[j]:
                groups.setdefault(self.rows[j], []).append(right[j])
        member = [[] for _ in left]
        for row, ts in groups.items():
            for i in mask_members(row):
                member[i].append(ts)
        return [(s, lists[0] if len(lists) == 1 else sorted(chain.from_iterable(lists)))
                for s, lists in sorted(zip(left, member)) if lists]

    def sorted_pairs(self):
        """The [s, t] name lists of `pairs`, sorted by (s, t), read off `grouped`."""
        return [[s, t] for s, ts in self.grouped() for t in ts]

    def inverse(self):
        rows = [0] * self._k1.n
        for j, row in enumerate(self.rows):
            for i in mask_members(row):
                rows[i] |= 1 << j
        return Relation(self._k2, self._k1, rows)

    def covers_init(self, both_ways=False):
        """Every initial right state is related to an initial left state and,
        both_ways, every initial left state to an initial right state."""
        init = self._k1.init_mask
        covered = 0
        for t in self._k2.init:
            row = self.rows[self._k2.index(t)] & init
            if not row:
                return False
            covered |= row
        return not both_ways or covered == init


def _check_common(k1, k2, over):
    over = tuple(over)
    missing = [p for p in over if p not in k1.props or p not in k2.props]
    if missing:
        raise KripkeError(f"propositions {missing} not common to {k1.name} and {k2.name}")
    return over


# ---------------------------------------------------------------------------
# Bisimulation: a partition


@_gc_paused
def _partition(k1, k2, over):
    """Block ids of the states of k1 and of k2 under the coarsest bisimulation
    over `over` on their disjoint union (k1 alone when k1 is k2).  k1's rows
    are used as they are and only k2's are offset; none is changed.  Its lists
    and frozensets hold no cycles, so it runs with the cyclic GC paused."""
    over = _check_common(k1, k2, over)
    succ, pred, label = list(k1.succ), list(k1.predecessors()), []
    if k1 is not k2:
        base = k1.n
        succ += ([base + j for j in row] for row in k2.succ)
        pred += ([base + i for i in into] for into in k2.predecessors())
    for k in (k1,) if k1 is k2 else (k1, k2):
        code = [0] * k.n
        for b, p in enumerate(over):
            for i in mask_members(k.true_mask(p)):
                code[i] |= 1 << 2 * b
            for i in mask_members(k.maybe_mask(p)):
                code[i] |= 2 << 2 * b
        label += code
    ids = {}
    block = [ids.setdefault(c, len(ids)) for c in label]
    size = [0] * len(ids)
    for b in block:
        size[b] += 1
    # shared[b]: the signature (set of successors' blocks) of every member of
    # block b that is not dirty, i.e. has no successor that changed block.
    shared = [None] * len(ids)
    dirty = range(len(block))
    while dirty:
        groups = {}
        for i in dirty:
            s = frozenset([block[j] for j in succ[i]])
            groups.setdefault(block[i], {}).setdefault(s, []).append(i)
        moved = []
        for b, by_sig in groups.items():
            if sum(map(len, by_sig.values())) == size[b]:  # no clean member: the largest group stays
                shared[b] = max(by_sig, key=lambda s: len(by_sig[s]))
            by_sig.pop(shared[b], None)
            for s, states in by_sig.items():
                fresh = len(size)
                size.append(len(states))
                shared.append(s)
                size[b] -= len(states)
                for i in states:
                    block[i] = fresh
                moved += states
        dirty = {i for j in moved for i in pred[j]}
    return block[:k1.n], block[-k2.n:]


def _block_rows(ids1, ids2):
    """rows[j]: the left states in the block of right state j."""
    masks = {}
    for i, b in enumerate(ids1):
        masks[b] = masks.get(b, 0) | 1 << i
    return [masks.get(b, 0) for b in ids2]


def greatest_bisimulation(k1, k2, over):
    """The coarsest bisimulation over `over`, as a Relation from k1 to k2."""
    return Relation(k1, k2, _block_rows(*_partition(k1, k2, over)))


def bisimilar_over(k1, k2, over):
    """Greatest bisimulation relating both initial-state sets, or None."""
    rel = greatest_bisimulation(k1, k2, over)
    return rel if rel.covers_init(both_ways=True) else None


def quotient_bisim(k, over=None):
    """Quotient by the greatest auto-bisimulation; existential transition lift.

    Blocks are ordered by their first state and named {s,t,...} after their
    states in k's order; a block takes its first state's labels over `over`.
    """
    over = tuple(k.props) if over is None else tuple(over)
    ids, _ = _partition(k, k, over)
    name = f"{k.name}/~"
    if len(set(over)) != len(over):
        raise KripkeError(f"{name}: duplicate proposition names")
    position = {}
    of = [position.setdefault(b, len(position)) for b in ids]
    members = [[] for _ in position]
    targets = [set() for _ in position]
    for i, (b, row) in enumerate(zip(of, k.succ)):
        members[b].append(i)
        targets[b].update(map(of.__getitem__, row))
    states = tuple("{" + ",".join(map(k.states.__getitem__, m)) + "}" for m in members)
    index = {s: b for b, s in enumerate(states)}
    if len(index) != len(states):  # names with commas can collide
        raise KripkeError(f"{name}: duplicate state names")
    init = _initial(name, [states[of[k.index(s)]] for s in k.init], index)
    firsts = [m[0] for m in members]
    masks = [{p: flags_mask(bytes(map(mask_flags(mask(p), k.n).__getitem__, firsts))) for p in over}
             for mask in (k.true_mask, k.maybe_mask)]
    return KripkeStructure._of(name, over, states, index, init, [sorted(t) for t in targets], *masks)


# ---------------------------------------------------------------------------
# Simulation and refinement: one greatest fixpoint over rows


def greatest_rows(k1, k2, props, admits, two_sided=False):
    """Greatest relation R from k1 to k2 with (s, t) in R only if admits(a, b)
    for the labels a of s and b of t on every p in props, and every successor
    of t is matched by a successor of s inside R; two_sided, also every
    successor of s by a successor of t.  Returned as a Relation.
    """
    # Initial rows from the label masks, one AND per label class and prop.
    rows = [k1.full_mask] * k2.n
    for p in props:
        t1, m1, t2, m2 = k1.true_mask(p), k1.maybe_mask(p), k2.true_mask(p), k2.maybe_mask(p)
        by_value1 = {T3: t1, M3: m1, F3: k1.full_mask ^ t1 ^ m1}
        for b, mask2 in ((T3, t2), (M3, m2), (F3, k2.full_mask ^ t2 ^ m2)):
            allowed = 0
            for a, mask1 in by_value1.items():
                if admits(a, b):
                    allowed |= mask1
            for j in mask_members(mask2):
                rows[j] &= allowed
    # Re-examine state j of k2 whenever the row of one of its successors shrank.
    succ1 = k1.succ_masks if two_sided else None
    succ2 = k2.succ
    pred2 = k2.predecessors()
    pre = {}  # j -> k1.pre(rows[j]), dropped when rows[j] shrinks
    todo = list(range(k2.n))
    queued = [True] * k2.n
    while todo:
        j = todo.pop()
        queued[j] = False
        keep = rows[j]
        for j2 in succ2[j]:
            if not keep:
                break
            got = pre.get(j2)
            if got is None:
                got = pre[j2] = k1.pre(rows[j2])
            keep &= got
        if two_sided and keep:
            reach = 0
            for j2 in succ2[j]:
                reach |= rows[j2]
            for i in mask_members(keep):
                if succ1[i] & ~reach:
                    keep ^= 1 << i
        if keep != rows[j]:
            rows[j] = keep
            pre.pop(j, None)
            for j0 in pred2[j]:
                if not queued[j0]:
                    queued[j0] = True
                    todo.append(j0)
    return Relation(k1, k2, rows)


def greatest_simulation(k1, k2, over):
    """All pairs (s, t) with s (in k1) simulating t (in k2) over `over`."""
    return greatest_rows(k1, k2, _check_common(k1, k2, over), lambda a, b: a is b)


def simulates_over(k1, k2, over):
    """Greatest simulation of k2 by k1 covering k2's initial states, or None."""
    rel = greatest_simulation(k1, k2, over)
    return rel if rel.covers_init() else None


def is_simulation(k1, k2, over, pairs):
    """Replay the simulation clauses: labels agree, k1 matches k2's steps."""
    for s, t in pairs:
        if any(k1.label3(s, p) != k2.label3(t, p) for p in over):
            return False
        for t2 in k2.successors(t):
            if not any((s2, t2) in pairs for s2 in k1.successors(s)):
                return False
    return True


def is_bisimulation(k1, k2, over, pairs):
    inverse = {(t, s) for s, t in pairs}
    return is_simulation(k1, k2, over, pairs) and is_simulation(k2, k1, over, inverse)
