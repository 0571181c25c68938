"""The `bisim` and `simulates` reports, written from a relation's grouped rows,
against json.dumps of the sorted name pairs built from `Relation.pairs`.

A seeded differential: the structures come from the `rng` fixture, so a run
with a fresh VACMC_SEED feeds the renderer new ones.
"""

import json

import pytest

from vacmc.bisim import Relation, bisimilar_over, simulates_over
from vacmc.cli import main
from vacmc.kripke import KripkeStructure, duplicate_m, parse_kripke, render_kripke

# State names that JSON escapes (a quote, a backslash, a non-ASCII letter, an
# astral character) beside plain ones whose string order differs from their
# declaration order (s10 < s2).
NAMES = ('q"', "b\\", "é", "😀", 'x"\\é😀', "a", "Z", "s10", "s2")
ESCAPED = ('"', "\\", "é", "😀")
JUNK = 'j"é'
PROPS = ("p", "q", "r")


def _structure(rng, name, names):
    states = rng.sample(names, rng.randint(1, len(names)))
    labels = {s: {"p": rng.random() < 0.5, "q": rng.random() < 0.3} for s in states}
    trans = [(s, t) for s in states for t in states if rng.random() < 0.3]
    trans += [(s, rng.choice(states)) for s in states]
    init = [s for s in states if rng.random() < 0.3] or [states[0]]
    return KripkeStructure(name, PROPS, states, init, trans, labels)


def _with_junk(k):
    """k and an unreachable state, the only one with r: over a set with r, no
    state of another structure relates to it, so its row is empty."""
    labels = {s: k.labels_of(s) for s in k.states}
    labels[JUNK] = {"r": True}
    return KripkeStructure(k.name, PROPS, [*k.states, JUNK], k.init, [*k.trans, (JUNK, JUNK)], labels)


def _report(capsys, command, left, right, over, fmt):
    code = main([command, str(left), str(right), "--props", ",".join(over), "--format", fmt])
    out = capsys.readouterr()
    assert (code, out.err) == (0, "")
    return out.out


def _write(tmp_path, k, stem):
    path = tmp_path / f"{stem}.kr"
    path.write_text(render_kripke(k), encoding="utf-8")
    return path, parse_kripke(path.read_text(encoding="utf-8"))


def test_reports_equal_json_dumps_of_sorted_pairs(rng, tmp_path, capsys):
    seen = dict.fromkeys(("escaped", "several groups", "empty row", "no relation"), 0)
    for case in range(120):
        a = _structure(rng, "A", NAMES)
        b = duplicate_m(a, rng.randint(1, 3)) if rng.random() < 0.4 else _structure(rng, "B", NAMES)
        if rng.random() < 0.3:
            b = _with_junk(b)
        (left, ka), (right, kb) = _write(tmp_path, a, f"a{case}"), _write(tmp_path, b, f"b{case}")
        over = rng.choice([("p", "q", "r"), ("p",), ("q", "p"), ("r", "q")])
        for command, k1, k2, p1, p2 in (("bisim", ka, kb, left, right), ("simulates", ka, kb, left, right),
                                        ("simulates", kb, ka, right, left)):
            rel = (bisimilar_over if command == "bisim" else simulates_over)(k1, k2, over)
            result = {"value": rel is not None}
            if rel is not None:
                pairs = result["relation"] = sorted([s, t] for s, t in rel.pairs)
                rows = set(rel.rows) - {0}
                seen["escaped"] += any(c in s + t for s, t in pairs for c in ESCAPED)
                seen["several groups"] += any(sum(row >> i & 1 for row in rows) > 1 for i in range(k1.n))
                seen["empty row"] += 0 in rel.rows
            else:
                seen["no relation"] += 1
            out = _report(capsys, command, p1, p2, over, "json")
            report = {"command": command, "inputs": {"model": str(p1), "other": str(p2), "props": list(over)},
                      "result": result, "meta": json.loads(out)["meta"]}
            assert out == json.dumps(report, indent=2) + "\n"
            text = "".join(f"{key}: {json.dumps(v) if isinstance(v, list) else v}\n" for key, v in result.items())
            assert _report(capsys, command, p1, p2, over, "text") == text
    assert all(count >= 5 for count in seen.values()), seen


@pytest.fixture
def no_name_pairs(monkeypatch):
    def refuse(self):
        raise AssertionError("Relation.pairs was built")

    monkeypatch.setattr(Relation, "pairs", property(refuse))


def test_a_uniform_ring_is_written_without_name_pairs(tmp_path, capsys, no_name_pairs):
    """Every state of the ring and of its K^(2) is in one block: 150 x 300
    pairs from one group, written with no (s, t) pair built."""
    states = [f"r{i}" for i in range(150)]
    ring = KripkeStructure("U", ("p", "q"), states, [states[0]],
                           [(s, states[(i + 1) % 150]) for i, s in enumerate(states)],
                           {s: {"p": True} for s in states})
    (left, k), (right, dup) = _write(tmp_path, ring, "U"), _write(tmp_path, duplicate_m(ring, 2), "U2")
    pairs = sorted([s, t] for s in k.states for t in dup.states)
    out = json.loads(_report(capsys, "bisim", left, right, ("p", "q"), "json"))
    assert out["result"] == {"value": True, "relation": pairs}
    text = _report(capsys, "bisim", left, right, ("p", "q"), "text")
    assert text == f"value: True\nrelation: {json.dumps(pairs)}\n"
