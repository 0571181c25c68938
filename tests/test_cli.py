import json
import re
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from vacmc import cli, mc
from vacmc.cli import main
from vacmc.kripke import parse_kripke, render_kripke

from helpers import LARGE_CLOSURE

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_false_verdict_exits_zero(self, capsys):
        code, out, _ = run(capsys, "check", "O.kr", "AG ((AX q) | (AX !q))")
        assert code == 0 and "value: False" in out

    def test_true_verdict(self, capsys):
        code, out, _ = run(capsys, "check", "L", "AG p")
        assert code == 0 and "value: True" in out

    def test_three_valued_output(self, capsys, tmp_path):
        model = tmp_path / "K3.kr"
        model.write_text("kripke K3\nprops: p\ninit: s\nstate s: p=M\ntrans: s s\n")
        code, out, _ = run(capsys, "check", str(model), "AG p")
        assert code == 0 and "value: M" in out

    def test_a_directory_is_not_a_model(self, capsys, tmp_path):
        code, out, err = run(capsys, "check", str(tmp_path), "EF p")
        assert (code, out) == (1, "") and "internal" not in err
        assert err == f"error: cannot read model {str(tmp_path)!r}: Is a directory\n"

    def test_an_undecodable_model_is_a_user_error(self, capsys, tmp_path):
        model = tmp_path / "K.kr"
        model.write_bytes(b"kripke K\nprops: p\ninit: \xff\nstate \xff: p\ntrans: \xff \xff\n")
        code, out, err = run(capsys, "check", str(model), "EF p")
        assert (code, out) == (1, "") and "internal" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_deep_formula_on_a_long_ring(self, capsys, tmp_path):
        lines = ["kripke R", "props: p", "init: s0"]
        lines += [f"state s{i}:" + (" p" if i == 320 else "") for i in range(600)]
        lines += [f"trans: s{i} s{(i + 1) % 600}" for i in range(600)]
        model = tmp_path / "ring.kr"
        model.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "check", str(model), "AX " * 320 + "p", "--format", "json")
        assert code == 0 and json.loads(out)["result"] == {"value": True}
        code, out, _ = run(capsys, "check", str(model), "AX " * 319 + "p", "--format", "json")
        assert code == 0 and json.loads(out)["result"]["value"] is False

    def test_wide_operands_and_path_bodies(self, capsys):
        # 1500 operands nest 1500 deep, past the interpreter's recursion limit
        conj = " & ".join(["p"] * 1500)
        witness = {"kind": "witness", "state": "a0", "stem": [], "loop": ["a0"]}
        code, out, _ = run(capsys, "check", "L", f"EX ({conj})", "--format", "json")
        assert code == 0 and json.loads(out)["result"] == {"value": True, "witness": witness}
        disj = " | ".join(["X p"] * 1500)
        code, out, _ = run(capsys, "check", "L", f"E({disj})", "--format", "json")
        assert code == 0 and json.loads(out)["result"] == {"value": True, "witness": witness}
        disj = " | ".join(["X !p"] * 1500)
        code, out, _ = run(capsys, "check", "L", f"A({disj})", "--format", "json")
        assert code == 0 and json.loads(out)["result"]["witness"]["kind"] == "counterexample"

    def test_ten_thousand_nested_operators(self, capsys):
        code, out, _ = run(capsys, "check", "L", "AX " * 10_000 + "p")
        assert code == 0 and "value: True" in out

    def test_parse_error_exits_one(self, capsys):
        code, _, err = run(capsys, "check", "L", "AG (p ->")
        assert code == 1 and "error:" in err

    def test_unknown_model_exits_one(self, capsys):
        code, _, err = run(capsys, "check", "nosuch.kr", "AG p")
        assert code == 1 and "error" in err


class TestVacuity:
    def test_auto_non_vacuous(self, capsys):
        code, out, _ = run(capsys, "vacuity", "L", "AG ((AX p) | (AX !p))", "--sub", "p")
        assert code == 0 and "non-vacuous" in out and "satx" in out

    def test_auto_unknown_exits_two(self, capsys):
        code, out, _ = run(capsys, "vacuity", "L", "(EX p) | (AX !p)", "--sub", "p")
        assert code == 2 and "unknown" in out

    def test_bounded_validity_probe(self, capsys):
        code, out, _ = run(
            capsys, "vacuity", "L", "(EX p) | (AX !p)", "--sub", "p", "--bounded-validity", "3"
        )
        assert code == 0 and "bounded-validity" in out

    @pytest.mark.parametrize("option, value", [("--bounded-validity", "-2"), ("--bound", "-1")])
    def test_a_negative_count_is_a_usage_error(self, capsys, option, value):
        """Refused by argparse, as --format xml is, not read as no probe or no bound."""
        for argv, message in (((option, value), f"argument {option}: must not be negative: '{value}'"),
                              (("--format", "xml"), "argument --format: invalid choice: 'xml'")):
            with pytest.raises(SystemExit) as exc:
                main(["vacuity", "L", "(EX p) | (AX !p)", "--sub", "p", *argv])
            out = capsys.readouterr()
            assert exc.value.code == 2 and out.out == "" and f"vacuity: error: {message}" in out.err

    def test_counts_of_zero_and_up_are_taken(self, capsys):
        code, out, _ = run(capsys, "vacuity", "L", "(EX p) | (AX !p)", "--sub", "p", "--bounded-validity", "0",
                           "--format", "json")
        assert code == 2 and json.loads(out)["result"]["route"] == "unknown"
        code, out, _ = run(capsys, "vacuity", "L", "(EX p) | (AX !p)", "--sub", "p", "--bound", "0", "--format", "json")
        assert code == 2 and json.loads(out)["result"]["bounds"]["labeling_agreement"] is None

    def test_via_structure(self, capsys):
        code, out, _ = run(
            capsys, "vacuity", "P.kr", "A((X q) -> X X q)", "--sub", "q", "--via", "structure"
        )
        assert code == 0 and "vacuous-by-structure" in out

    def test_deep_formula_goes_monotone(self, capsys):
        code, out, _ = run(capsys, "vacuity", "L.kr", "AX " * 300 + "p", "--sub", "p", "--format", "json")
        assert code == 0 and json.loads(out)["result"]["route"] == "monotone"

    def test_via_satx_precondition_error(self, capsys):
        code, _, err = run(capsys, "vacuity", "V", "AG p", "--sub", "p", "--via", "satx")
        assert code == 1 and "error" in err


class TestRelationsAndQuotient:
    def test_bisim(self, capsys):
        code, out, _ = run(capsys, "bisim", "L", "M", "--props", "p")
        assert code == 0 and "value: True" in out

    def test_simulates(self, capsys):
        code, out, _ = run(capsys, "simulates", "Valpha", "V", "--props", "p,q")
        assert code == 0 and "value: True" in out

    def test_quotient_renders_kr(self, capsys):
        code, out, _ = run(capsys, "quotient", "M", "--format", "json")
        assert code == 0
        data = json.loads(out)
        q = parse_kripke(data["result"]["kripke"])
        assert q.n == 1


class TestQctl:
    def test_bisim_route(self, capsys):
        code, out, _ = run(
            capsys, "qctl", "L.kr", "forall x . AG ((AX x) | (AX !x))", "--semantics", "bisim"
        )
        assert code == 0 and "value: False" in out and "KParallelX" in out

    def test_structure_witness(self, capsys):
        code, out, _ = run(capsys, "qctl", "M", "forall x . AG (x -> AX x)", "--semantics", "structure")
        assert code == 0 and "BruteForceY" in out and "b0" in out

    def test_a_large_closure_under_the_quantifier_is_refused(self, capsys, monkeypatch):
        def no_table(closure, sig):
            raise AssertionError("a table of a refused closure was built")

        monkeypatch.setattr(mc._Closure, "_build_table", no_table)
        # twice in a row: the second query gets the closure that the first one cached
        for _ in range(2):
            code, out, err = run(capsys, "qctl", "M", f"forall x . {LARGE_CLOSURE}", "--semantics", "structure")
            assert (code, out, err) == (1, "", "error: path formula closure too large (16 temporal operators)\n")

    def test_unknown_exits_two(self, capsys):
        code, out, _ = run(capsys, "qctl", "M", "forall x . (EX x) | (EX !x)", "--semantics", "tree")
        assert code == 2 and "value: None" in out and "Unknown" in out


class TestTranslate:
    def test_f(self, capsys):
        code, out, _ = run(capsys, "translate", "f", "p", "--order", "p")
        assert code == 0 and "EX z" in out

    def test_ez_and_decode_roundtrip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "translate", "ez", "U", "--order", "p,q", "--format", "json")
        assert code == 0
        encoded = json.loads(out)["result"]["kripke"]
        model = tmp_path / "ez.kr"
        model.write_text(encoded)
        code, out, _ = run(
            capsys, "translate", "decode", str(model), "--order", "p,q", "--props", "p,q",
            "--format", "json",
        )
        assert code == 0
        decoded = parse_kripke(json.loads(out)["result"]["kripke"])
        assert decoded.n == 2


    BAD_ORDERINGS = [
        ("f", "AG q", "--order", "p"),
        ("f", "AG p", "--order", "p=x"),
        ("g", "A(G p)", "--order", "p=2"),
        ("ez", "V", "--order", "p"),
        ("decode", "ezU", "--order", "p", "--props", "q"),
    ]

    @pytest.mark.parametrize("argv", BAD_ORDERINGS, ids=[" ".join(a) for a in BAD_ORDERINGS])
    def test_a_bad_ordering_is_a_user_error(self, capsys, argv):
        code, out, err = run(capsys, "translate", *argv)
        assert code == 1 and out == "" and err.startswith("error: ") and "internal" not in err


class TestReports:
    def test_json_schema_roundtrip(self, capsys):
        code, out, _ = run(capsys, "check", "L", "AG p", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"command", "inputs", "result", "meta"}
        assert data["command"] == "check"
        assert data["inputs"]["model"] == "L" and data["inputs"]["formula"] == "AG p"
        assert data["result"]["value"] is True
        assert {"seed", "elapsed_ms"} <= set(data["meta"])

    def test_table1_matches_golden(self, capsys):
        code, out, _ = run(capsys, "table1")
        assert code == 0
        assert out == (GOLDEN / "table1.txt").read_text()


# Reports whose serialised bytes are pinned: file stem and argv (run with --format json).
GOLDEN_JSON = [
    ("bisim_L_M", ("bisim", "L", "M", "--props", "p")),
    ("simulates_Valpha_V", ("simulates", "Valpha", "V", "--props", "p,q")),
    ("quotient_M", ("quotient", "M")),
    ("check_P_lasso", ("check", "P", "E(X X G q)")),
    ("vacuity_L_variant_witness", ("vacuity", "L", "AG ((AX p) | (AX !p)) | EF (p & !p)", "--sub", "p")),
    ("qctl_M_chain_implication",
     ("qctl", "M", "forall x . AG ((AX x) | (AX !x)) | EF (x & !x)", "--semantics", "bisim")),
]


class TestJsonLayout:
    @pytest.mark.parametrize("stem,argv", GOLDEN_JSON, ids=[stem for stem, _ in GOLDEN_JSON])
    def test_report_bytes_match_golden(self, capsys, monkeypatch, stem, argv):
        monkeypatch.delenv("VACMC_SEED", raising=False)
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        assert re.sub(r'("elapsed_ms": )[^,\n]*', r"\g<1>0", out) == (GOLDEN / f"{stem}.json").read_text()

    def test_relation_is_sorted_by_left_then_right_name(self, capsys):
        code, out, _ = run(capsys, "bisim", "M", "L", "--props", "p", "--format", "json")
        assert code == 0 and json.loads(out)["result"]["relation"] == [["b0", "a0"], ["b1", "a0"]]


_TEXT = st.text(st.sampled_from('ab"\\/\n\t\x00\x1f\x7f é€😀\ud800')) | st.text(max_size=6)
_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | _TEXT


def _rows(cells):
    """Lists of rows: all of one length (the relation layout), or ragged."""
    equal = st.integers(0, 3).flatmap(lambda w: st.lists(st.lists(cells, min_size=w, max_size=w), max_size=6))
    return equal | equal.map(lambda rows: [tuple(r) for r in rows]) | st.lists(st.lists(cells, max_size=3))


_JSON = st.recursive(
    _SCALARS | _rows(_TEXT) | _rows(_SCALARS),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=25,
)


class TestDumps:
    @seed(20250810)
    @settings(max_examples=400, database=None, deadline=None)
    @given(_JSON)
    def test_equals_json_dumps_indent_2(self, obj):
        assert cli._dumps(obj) == json.dumps(obj, indent=2)

    def test_edge_layouts(self):
        for obj in ([], {}, [[]], [[], []], [["a"], ["b", "c"]], [["a", 1]], ("x", "y"), {"k": [[["a"]]]}):
            assert cli._dumps(obj) == json.dumps(obj, indent=2)


class TestOneParser:
    def test_the_parser_is_built_once(self):
        assert cli._parser() is cli._parser()

    def test_no_defaults_leak_between_calls(self, capsys):
        def result(*argv):
            code, out, err = run(capsys, *argv, "--format", "json")
            assert code in (0, 2), err
            return json.loads(out)

        first = result("vacuity", "P.kr", "A((X q) -> X X q)", "--sub", "q", "--via", "structure", "--bound", "3")
        assert first["result"]["route"] == "structure"
        assert result("vacuity", "P.kr", "A((X q) -> X X q)", "--sub", "q")["result"]["route"] != "structure"
        code, _, err = run(capsys, "qctl", "M", "forall x . AG (x -> AX x)", "--semantics", "structure", "--bound", "1")
        assert code == 1 and "exceed the bound" in err
        assert result("qctl", "M", "forall x . AG (x -> AX x)", "--semantics", "structure")["result"]["value"] is False
        assert result("quotient", "O", "--props", "p")["inputs"]["props"] == ["p"]
        assert result("quotient", "O")["inputs"]["props"] is None
        assert result("bisim", "L", "M", "--props", "p")["inputs"]["props"] == ["p"]
        assert result("check", "L", "AG p")["inputs"] == {"model": "L", "formula": "AG p"}


class TestInternalErrors:
    def test_an_unexpected_exception_is_one_line(self, capsys, monkeypatch):
        def broken(target):
            raise RuntimeError("boom\non two lines")

        monkeypatch.setattr(cli, "_load_model", broken)
        for argv in (("check", "L", "AG p"), ("quotient", "M"), ("vacuity", "L", "EF p", "--sub", "p")):
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (1, "", "error: internal RuntimeError: boom on two lines\n")

    def test_a_deep_path_formula_is_refused_with_its_message(self, capsys):
        code, out, err = run(capsys, "check", "L", "E(" + "X " * 1000 + "p)")
        assert code == 1 and out == ""
        assert err.startswith("error: path formula closure too large") and err.count("\n") == 1
        assert "internal" not in err

    def test_vacmc_errors_keep_their_message(self, capsys):
        code, _, err = run(capsys, "check", "L", "AG (p ->")
        assert code == 1 and err.startswith("error: ") and "internal" not in err


# One fixture query per route: argv, exit code and the whole JSON result.
ROUTES = [
    (("vacuity", "L", "AG p", "--sub", "q"), 0, {"status": "vacuous", "route": "absent"}),
    (("vacuity", "L", "AG (p | AX p)", "--sub", "p"), 0,
     {"status": "non-vacuous", "route": "monotone",
      "witness": {"substituted_true": True, "substituted_false": False}}),
    (("vacuity", "L", "AG (p -> p)", "--sub", "p"), 0, {"status": "vacuous", "route": "satx"}),
    (("vacuity", "L", "AG (p -> AX p)", "--sub", "p"), 0,
     {"status": "non-vacuous", "route": "satx",
      "witness": {"structure": "L||chi", "formula": "AG (x -> (AX x))", "verdict": False}}),
    (("vacuity", "L", "EF (p & !p)", "--sub", "p"), 0, {"status": "vacuous", "route": "falx"}),
    (("vacuity", "L", "EF (p & EX !p)", "--sub", "p"), 0,
     {"status": "non-vacuous", "route": "falx",
      "witness": {"formula": "EF (x & (EX !x))", "satisfiable_variant": True}}),
    (("vacuity", "M", "AG ((AX p) | (AX !p)) | EF (p & !p)", "--sub", "p"), 0,
     {"status": "non-vacuous", "route": "structure-witness",
      "witness": {"satisfying_set": [], "falsifying_set": ["b0"]}}),
    (("vacuity", "L", "AG ((AX p) | (AX !p)) | EF (p & !p)", "--sub", "p"), 0,
     {"status": "non-vacuous", "route": "variant-witness",
      "witness": {"structure": "L||chi_x0^2", "labeling": {"(a0,x00)": True, "(a0,x01)": False},
                  "formula": "(AG ((AX x) | (AX !x))) | (EF (x & !x))", "verdict": False}}),
    (("vacuity", "L", "(EX p) | (AX !p)", "--sub", "p", "--bounded-validity", "1"), 0,
     {"status": "vacuous", "route": "bounded-validity", "witness": {"side": "valid"},
      "bounds": {"bounded_validity": 1}}),
    (("vacuity", "L", "AG (AX p | EX !p)", "--sub", "p"), 2,
     {"status": "unknown", "route": "unknown",
      "bounds": {"compositional": "maybe", "labeling_agreement": True}}),
    (("vacuity", "L", "AG (AX p | EX !p)", "--sub", "p", "--bound", "0"), 2,
     {"status": "unknown", "route": "unknown",
      "bounds": {"compositional": "maybe", "labeling_agreement": None}}),
    (("vacuity", "L", "true | (EX p & EX !p)", "--sub", "p", "--via", "thorough"), 0,
     {"status": "vacuous", "route": "compositional", "witness": {"compositional": "true"}}),
    (("vacuity", "L", "A((X p) | (X !p))", "--sub", "p", "--via", "thorough"), 0,
     {"status": "vacuous", "route": "thorough", "witness": {"thorough": "true"}}),
    (("vacuity", "L", "EF (p & !p)", "--sub", "p", "--via", "thorough"), 0,
     {"status": "vacuous", "route": "thorough", "witness": {"thorough": "false"}}),
    (("vacuity", "L", "AG ((AX p) | (AX !p)) | EF (p & !p)", "--sub", "p", "--via", "thorough"), 0,
     {"status": "non-vacuous", "route": "thorough", "witness": {"thorough": "maybe"}}),
    (("vacuity", "L", "AG (AX p | EX !p)", "--sub", "p", "--via", "thorough"), 2,
     {"status": "unknown", "route": "thorough", "bounds": {"compositional": "maybe", "labeling": "true"}}),
    # past --bound the labelings are not swept, so the labeling bound is unknown
    (("vacuity", "L", "AG (AX p | EX !p)", "--sub", "p", "--via", "thorough", "--bound", "0"), 2,
     {"status": "unknown", "route": "thorough", "bounds": {"compositional": "maybe", "labeling": None}}),
    # a set atom is foreign on the renamed K_x: no compositional bound, still a verdict
    (("vacuity", "M", "AG ((AX p) | (EX !p)) | {b1}@M", "--sub", "p"), 2,
     {"status": "unknown", "route": "unknown", "bounds": {"compositional": None, "labeling_agreement": True}}),
    (("vacuity", "M", "AG ((AX p) | (EX !p)) | {b1}@M", "--sub", "p", "--via", "thorough"), 2,
     {"status": "unknown", "route": "thorough", "bounds": {"compositional": None, "labeling": "true"}}),
    (("qctl", "L", "forall x . AG (x -> AX x)", "--semantics", "bisim"), 0,
     {"value": False, "route": "KParallelX"}),
    (("qctl", "M", "forall x . AG ((AX x) | (AX !x)) | EF (x & !x)", "--semantics", "bisim"), 0,
     {"value": False, "route": "ChainImplication", "witness": {"labeling": ["b0"]}}),
    (("qctl", "L", "forall x . AG ((AX x) | (AX !x)) | EF (x & !x)", "--semantics", "bisim"), 0,
     {"value": False, "route": "RegularWitness",
      "witness": {"structure": "L^(2)^2", "labeling": {"(a0,0)": True, "(a0,1)": False}}}),
    (("qctl", "L", "exists x . EF (x & EX !x)", "--semantics", "bisim"), 0,
     {"value": True, "route": "Duality"}),
    (("qctl", "M", "exists x . AG x", "--semantics", "bisim"), 0,
     {"value": True, "route": "Duality", "witness": {"labeling": ["b0", "b1"]}}),
    (("qctl", "L", "forall x . AG ((AX x) | (EX !x))", "--semantics", "bisim"), 2,
     {"value": None, "route": "Unknown"}),
    (("qctl", "L", "forall x . AG ((AX x) | (AX !x)) | EF (x & !x)", "--semantics", "tree"), 0,
     {"value": True, "route": "DeterministicCollapse"}),
    (("qctl", "L", "forall x . A ((X x) | (X !x))", "--semantics", "tree"), 0,
     {"value": True, "route": "PathFormulaEquivalence"}),
    (("qctl", "M", "forall x . AG ((AX x) | (AX !x)) | EF (x & !x)", "--semantics", "tree"), 0,
     {"value": False, "route": "ChainImplication", "witness": {"labeling": ["b0"]}}),
    (("qctl", "M", "forall x . AG ((AX x) | (EX !x))", "--semantics", "tree"), 2,
     {"value": None, "route": "Unknown"}),
    (("qctl", "M", "exists x . EF (x & EX !x)", "--semantics", "tree"), 0,
     {"value": True, "route": "Duality", "witness": {"labeling": ["b0"]}}),
]


class TestRouteContract:
    """Each route's whole --format json result, evidence and bounds included."""

    @pytest.mark.parametrize("argv,code,result", ROUTES, ids=[" ".join(a) for a, _, _ in ROUTES])
    def test_route(self, capsys, argv, code, result):
        got, out, _ = run(capsys, *argv, "--format", "json")
        assert (got, json.loads(out)["result"]) == (code, result)
