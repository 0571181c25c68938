"""Three-valued Kleene logic: truth values, operators, and the two orders."""

import enum


class TruthValue3(enum.Enum):
    TRUE = "true"
    MAYBE = "maybe"
    FALSE = "false"

    def __repr__(self):
        return f"TruthValue3.{self.name}"

    def __str__(self):
        return self.value


T3 = TruthValue3.TRUE
M3 = TruthValue3.MAYBE
F3 = TruthValue3.FALSE

# rank in the truth order: false < maybe < true
_TRUTH_RANK = {F3: 0, M3: 1, T3: 2}


def not3(a):
    if a is T3:
        return F3
    if a is F3:
        return T3
    return M3


def and3(a, b):
    """Meet in the truth order."""
    return a if _TRUTH_RANK[a] <= _TRUTH_RANK[b] else b


def or3(a, b):
    """Join in the truth order."""
    return a if _TRUTH_RANK[a] >= _TRUTH_RANK[b] else b


def implies3(a, b):
    return or3(not3(a), b)


def truth_le(a, b):
    """a is at most as true as b (false < maybe < true)."""
    return _TRUTH_RANK[a] <= _TRUTH_RANK[b]


def info_le(a, b):
    """a carries at most as much information as b (maybe below true and false)."""
    return a is M3 or a is b


def kleene(op, a, b=None):
    """Dispatch by operator name; 'not' is unary, the rest binary."""
    if op == "not":
        return not3(a)
    if op == "and":
        return and3(a, b)
    if op == "or":
        return or3(a, b)
    if op == "implies":
        return implies3(a, b)
    raise ValueError(f"unknown Kleene operator {op!r}")

