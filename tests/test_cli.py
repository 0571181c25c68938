import contextlib
import io
import json
import os
import re
import select
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from vacmc import cli, kripke, mc
from vacmc import formula as F
from vacmc.cli import main
from vacmc.kripke import parse_kripke, render_kripke

from helpers import LARGE_CLOSURE, rand_ctl, rand_path

GOLDEN = Path(__file__).parent / "golden"
THREE_VALUED = "kripke T3\nprops: p q\ninit: s0\nstate s0: p q=M\nstate s1: q\ntrans: s0 s1\ntrans: s1 s0\n"


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

    def test_three_valued_ctl_star(self, capsys, tmp_path):
        model = tmp_path / "T3.kr"
        model.write_text(THREE_VALUED)
        for formula, value in (("E(G F q)", "T"), ("A(F G !p)", "F"), ("E(G F p & F G q)", "M")):
            assert run(capsys, "check", str(model), formula) == (0, f"value: {value}\n", ""), formula

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

    def test_a_file_named_like_a_fixture_is_read_first(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "L").write_text("kripke Mine\nprops: p\ninit: a0\nstate a0:\ntrans: a0 a0\n")
        assert cli._load_model("L").name == "Mine"
        code, out, _ = run(capsys, "check", "L", "AG p")
        assert code == 0 and "value: False" in out  # the fixture L satisfies AG p

    def test_a_crlf_model_parses_as_its_lf_copy(self, tmp_path):
        text = (Path(cli.__file__).parent / "fixtures" / "V.kr").read_text()
        (tmp_path / "lf.kr").write_bytes(text.encode())
        (tmp_path / "crlf.kr").write_bytes(text.replace("\n", "\r\n").encode())
        lf, crlf = cli._load_model(str(tmp_path / "lf.kr")), cli._load_model(str(tmp_path / "crlf.kr"))
        assert crlf == lf and render_kripke(crlf) == render_kripke(lf)

    def test_paths_that_cannot_be_opened_go_to_the_fixtures(self, capsys, tmp_path):
        model = tmp_path / "K.kr"
        model.write_text("kripke K\nprops: p\ninit: s\nstate s: p\ntrans: s s\n")
        for target in (str(tmp_path / "missing"), str(model / "under-a-file"), "K\0"):
            code, out, err = run(capsys, "check", target, "EF p")
            assert (code, out) == (1, "") and err.startswith(f"error: unknown fixture {target!r}; available: ")

    def test_undecodable_bytes_name_the_codec_error(self, capsys, tmp_path):
        model = tmp_path / "K.kr"
        model.write_bytes(b"kripke K\n\xff\n")
        code, _, err = run(capsys, "check", str(model), "EF p")
        assert code == 1
        assert err == (f"error: cannot read model {str(model)!r}: "
                       "'utf-8' codec can't decode byte 0xff in position 9: invalid start byte\n")

    def test_a_byte_order_mark_is_not_part_of_the_text(self, capsys, tmp_path):
        text = "kripke K\nprops: p\ninit: s\nstate s: p\ntrans: s s\n"
        model = tmp_path / "bom.kr"
        model.write_bytes(b"\xef\xbb\xbf" + text.encode())
        code, out, err = run(capsys, "check", str(model), "AG p")
        assert (code, err) == (0, "") and "value: True" in out
        assert cli._load_model(str(model)) == parse_kripke(text)

    def test_an_unreadable_file_is_reported(self, capsys, tmp_path):
        model = tmp_path / "K.kr"
        model.write_text("kripke K\nprops: p\ninit: s\nstate s: p\ntrans: s s\n")
        model.chmod(0)
        if os.access(model, os.R_OK):
            pytest.skip("permission bits do not stop this user from reading")
        code, _, err = run(capsys, "check", str(model), "EF p")
        assert (code, err) == (1, f"error: cannot read model {str(model)!r}: Permission denied\n")

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

    @pytest.mark.parametrize("via, option", [
        ("mono", "--bounded-validity"), ("satx", "--bounded-validity"), ("thorough", "--bounded-validity"),
        ("structure", "--bounded-validity"), ("mono", "--bound"), ("satx", "--bound"),
    ])
    def test_an_option_the_route_does_not_read_is_refused(self, capsys, via, option):
        """A usage error before the model is read, naming the option."""
        with pytest.raises(SystemExit) as exc:
            main(["vacuity", "no-such-model", "AG p", "--sub", "p", "--via", via, option, "3"])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert f"vacuity: error: argument {option}: not read by --via {via}" in out.err

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

    @pytest.mark.parametrize("via", ["auto", "mono", "satx", "thorough", "structure"])
    def test_every_route_refuses_a_quantified_formula(self, capsys, via):
        code, out, err = run(capsys, "vacuity", "L", "forall y . AG (y | p)", "--sub", "p", "--via", via)
        assert (code, out, err) == (1, "", "error: propositional quantifiers are handled by the qctl module\n")

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

    def test_decode_requires_props(self, capsys):
        assert run(capsys, "translate", "decode", "L", "--order", "p") == (1, "", "error: decode requires --props\n")

    @pytest.mark.parametrize("order", ["p=1,p=2", "p,p", "p=2,q=1,p=3", "q p,p"])
    def test_a_repeated_proposition_is_named(self, capsys, order):
        code, out, err = run(capsys, "translate", "f", "p", "--order", order)
        assert (code, out, err) == (1, "", "error: proposition 'p' given twice in ordering\n")


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

    @pytest.mark.parametrize("seed", ["abc", "", "1.5", "0x10"])
    def test_a_seed_that_is_not_an_integer_is_refused(self, capsys, monkeypatch, seed):
        monkeypatch.setenv("VACMC_SEED", seed)
        refused = {"exit": 2, "stdout": "", "stderr": f"error: VACMC_SEED is not an integer: {seed!r}\n"}
        queries = [["check", "L", "AG p"], ["quotient", "M", "--format", "json"],
                   ["vacuity", "L", "AG ((AX p) | (AX !p))", "--sub", "p"]]
        for argv in queries:
            assert dict(zip(("exit", "stdout", "stderr"), run(capsys, *argv))) == refused
        assert _batch(capsys, queries) == (0, [refused] * 3)
        assert run(capsys, "table1")[0] == 0  # it writes no seed

    def test_the_seed_is_an_int_in_the_report(self, capsys, monkeypatch):
        monkeypatch.setenv("VACMC_SEED", " 42 ")
        code, out, _ = run(capsys, "check", "L", "AG p", "--format", "json")
        assert code == 0 and json.loads(out)["meta"]["seed"] == 42

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


# One argument list per subcommand with every option at a valid value: the
# shapes the bench sends, which must not fall back to argparse.
CANONICAL = [
    ["check", "L", "AG p", "--format", "json"],
    ["vacuity", "L", "AG p", "--sub", "p", "--via", "auto", "--bounded-validity", "2", "--format", "json",
     "--bound", "20"],
    ["bisim", "L", "M", "--props", "p", "--format", "json"],
    ["simulates", "M", "L", "--props", "p", "--format", "text"],
    ["quotient", "M", "--props", "p", "--format", "json"],
    ["qctl", "M", "forall x . AG (x -> AX x)", "--semantics", "structure", "--format", "json", "--bound", "20"],
    ["translate", "f", "AG p", "--order", "p", "--props", "p", "--z", "z", "--format", "json"],
    ["table1"],
    ["batch", os.devnull],
]

# Values a generated argument list draws from, valid and refused alike.
_VALUES = {
    "model": ["L", "M"], "left": ["L", "M"], "right": ["M"], "input": ["L", "AG p"],
    "formula": ["AG p", "forall x . AG (x -> AX x)", "p q", ""], "sub": ["p", "q"], "props": ["p", "p,q"],
    "order": ["p", "p=1", "p,p"], "z": ["z"], "file": [os.devnull],
}
_ODD = ["-h", "--", "-1", "-p", "extra"]


def _value(a):
    """Mostly a value the argument takes, else one argparse refuses or reads as an option."""
    valid = ["0", "3"] if a.type is cli._count else [*(a.choices or ()), *_VALUES.get(a.dest, ())]
    return st.sampled_from(valid * 4 + ["x" if a.type is cli._count else "xml", "-1", "-p"])


@st.composite
def _argvs(draw):
    """Argument lists over the command table, and an unknown command: the
    last positional at times dropped; options absent, repeated, abbreviated or
    written with '=', placed before, between and after the positionals; at
    times one stray token of _ODD, an extra positional among them."""
    name = draw(st.sampled_from([*cli._COMMANDS, "nope"]))
    command = cli._COMMANDS.get(name, cli._COMMANDS["check"])
    groups = [[draw(_value(a))] for a in command.positionals]
    if groups and draw(st.integers(0, 7)) == 7:
        groups.pop()
    for a in command.options.values():
        for _ in range(draw(st.sampled_from([1, 0, 1, 2, 1]))):
            value, spelling = draw(_value(a)), draw(st.sampled_from(["exact"] * 8 + ["abbreviated", "="]))
            group = [a.name[:-1], value] if spelling == "abbreviated" else [a.name, value]
            groups.insert(draw(st.integers(0, len(groups))), [f"{a.name}={value}"] if spelling == "=" else group)
    if draw(st.integers(0, 3)) == 3:
        groups.insert(draw(st.integers(0, len(groups))), [draw(st.sampled_from(_ODD))])
    return [name] + [token for group in groups for token in group]


def _blank_elapsed(out):
    return re.sub(r'"elapsed_ms": [^,\n]*', "", out)


def _outcome(argv):
    """main's exit code, standard output (elapsed time blanked) and standard
    error; a SystemExit from argparse is an outcome too.  Standard input is
    empty, for `batch` without a file."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(sys, "stdin", io.TextIOWrapper(io.BytesIO())):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, _blank_elapsed(out.getvalue()), err.getvalue()


class TestOnePassReader:
    """cli._read reads the plain argument lists from the command table and
    leaves everything else to argparse, which stays the reference."""

    @seed(20261020)
    @settings(max_examples=300, database=None, deadline=None)
    @given(_argvs())
    def test_agrees_with_argparse(self, argv):
        args = cli._read(argv)
        if args is not None:
            assert vars(args) == vars(cli._parser().parse_args(argv))
        with mock.patch.object(cli, "_read", lambda argv: None):
            reference = _outcome(argv)
        assert _outcome(argv) == reference

    def test_canonical_lists_cover_every_command_and_option(self):
        assert [argv[0] for argv in CANONICAL] == list(cli._COMMANDS)
        for argv in CANONICAL:
            assert {token for token in argv if token.startswith("--")} == set(cli._COMMANDS[argv[0]].options)

    @pytest.mark.parametrize("argv", CANONICAL, ids=[argv[0] for argv in CANONICAL])
    def test_a_canonical_list_never_builds_argparse(self, capsys, monkeypatch, argv):
        args = cli._read(argv)
        assert args is not None and vars(args) == vars(cli._parser().parse_args(argv))
        monkeypatch.setattr(cli, "_parser", lambda: pytest.fail("argparse read a plain argument list"))
        code, _, err = run(capsys, *argv)
        assert code in (0, 2) and err == ""

    @pytest.mark.parametrize("argv", [
        ["check", "L", "AG p", "--bound", "-1"], ["check", "L", "AG p", "--bound", "x"],
        ["check", "L", "AG p", "--form", "json"], ["check", "L", "AG p", "--format=json"],
        ["check", "L", "AG p", "--format", "xml"], ["check", "L", "AG p", "--format"], ["check", "L"],
        ["check", "L", "AG p", "extra"], ["check", "--", "L", "AG p"], ["check", "-h"], ["-h"], [], ["nope"],
        ["vacuity", "L", "p"], ["translate", "x", "L", "--order", "p"],
    ])
    def test_other_shapes_are_left_to_argparse(self, argv):
        assert cli._read(argv) is None

    def test_the_process_arguments_are_read_when_none_are_given(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["vacmc", "check", "L", "AG p", "--format", "json"])
        code, out = main(), capsys.readouterr().out
        assert code == 0 and json.loads(out)["inputs"] == {"model": "L", "formula": "AG p"}


def _counting_parses(monkeypatch):
    """Empties parse_kripke's memo and counts the structures built from text."""
    built = []
    parse = kripke._parse
    monkeypatch.setattr(kripke, "_held", kripke.Held(kripke._HOLD))
    monkeypatch.setattr(kripke, "_parse", lambda text: built.append(text) or parse(text))
    return built


# One query per subcommand that loads a model, run twice in one process.
REPEATS = [
    ("check", "P", "E(X X G q)"),
    ("vacuity", "L", "AG ((AX p) | (AX !p)) | EF (p & !p)", "--sub", "p"),
    ("bisim", "M", "M", "--props", "p"),
    ("simulates", "V", "V", "--props", "p,q"),
    ("quotient", "M"),
    ("qctl", "M", "forall x . AG ((AX x) | (AX !x)) | EF (x & !x)", "--semantics", "bisim"),
]


class TestRepeatLoads:
    """Queries on one model in one process build it once (parse_kripke's memo)."""

    def test_one_file_is_parsed_once_per_run_of_queries(self, capsys, monkeypatch, tmp_path):
        built = _counting_parses(monkeypatch)
        paths = [tmp_path / f"{name}.kr" for name in "ABCD"]
        for name, path in zip("ABCD", paths):
            path.write_text(f"kripke {name}\nprops: p\ninit: s0\nstate s0: p\nstate s1:\ntrans: s0 s1\ntrans: s1 s0\n")
        a, b, c, d = paths
        for formula in ("EF p", "AG p", "E(G F p)"):
            assert run(capsys, "check", str(a), formula)[0] == 0
        assert len(built) == 1
        for loads, builds in (((a, b, a), 2), ((a, b, c, d, a), 5)):  # D drops A, the oldest of three
            built.clear()
            kripke._held.clear()
            for path in loads:
                assert run(capsys, "check", str(path), "EF p")[0] == 0
            assert len(built) == builds

    def test_a_rewritten_file_gives_the_new_model(self, capsys, monkeypatch, tmp_path):
        built = _counting_parses(monkeypatch)
        model = tmp_path / "K.kr"
        model.write_text("kripke K\nprops: p\ninit: s0\nstate s0: p\ntrans: s0 s0\n")
        assert "value: True" in run(capsys, "check", str(model), "AG p")[1]
        model.write_text("kripke K\nprops: p\ninit: s0\nstate s0:\ntrans: s0 s0\n")
        assert "value: False" in run(capsys, "check", str(model), "AG p")[1]
        assert len(built) == 2

    @pytest.mark.parametrize("argv", REPEATS, ids=[a[0] for a in REPEATS])
    def test_a_repeat_query_prints_the_same_bytes(self, capsys, monkeypatch, argv):
        built = _counting_parses(monkeypatch)
        outputs = []
        for _ in range(2):
            code, out, err = run(capsys, *argv, "--format", "json")
            outputs.append((code, re.sub(r'("elapsed_ms": )[^,\n]*', r"\g<1>0", out), err))
        assert outputs[0] == outputs[1] and outputs[0][0] == 0
        assert len(built) == 1


def _record(argv):
    """What batch should write for argv: main's exit code (argparse's on a
    usage error), standard output and standard error, elapsed time blanked."""
    code, out, err = _outcome(argv)
    return {"exit": code[1] if isinstance(code, tuple) else code, "stdout": out, "stderr": err}


def _batch(capsys, lines, *argv):
    """batch's exit code and its records, elapsed time blanked, for input lines
    given on standard input (each bytes, or a list written as JSON)."""
    data = b"".join((line if isinstance(line, bytes) else json.dumps(line).encode()) + b"\n" for line in lines)
    with mock.patch.object(sys, "stdin", io.TextIOWrapper(io.BytesIO(data))):
        code, out, err = run(capsys, "batch", *argv)
    assert err == ""
    return code, [{**r, "stdout": _blank_elapsed(r["stdout"])} for r in map(json.loads, out.splitlines())]


BATCHED = [["check", "L"], ["check", "nope.kr", "AG p"], *(argv for argv in CANONICAL if argv[0] != "batch")]


class TestBatch:
    """batch runs one argument list per line and writes what main gives for each."""

    def test_each_record_is_what_main_gives_for_its_line(self, capsys, tmp_path):
        code, records = _batch(capsys, BATCHED)
        assert code == 0 and [r["exit"] for r in records[:2]] == [2, 1]  # the failures stop nothing
        assert records == [_record(argv) for argv in BATCHED]
        queries = tmp_path / "queries.jsonl"
        queries.write_text("".join(json.dumps(argv) + "\n" for argv in BATCHED))
        assert _batch(capsys, [], str(queries)) == (0, records)
        assert _batch(capsys, [[]], "-") == (0, [_record([])])
        with mock.patch.object(cli, "_parsers", side_effect=AssertionError("argparse read a plain list")):
            assert _batch(capsys, BATCHED[2:]) == (0, records[2:])

    def test_a_line_it_cannot_run_is_a_usage_record(self, capsys):
        lines = [b"", b"  ", b"not json", b"{}", b'["check", 1]', b'"check"', ["batch"], ["batch", os.devnull],
                 b'["\xff"]', ["check", "--help"], ["table1"]]  # b'["\xff"]': bytes that are not UTF-8
        code, records = _batch(capsys, lines)
        assert code == 0 and len(records) == len(lines) - 2  # blank lines are skipped
        for lineno, record in zip(range(3, 10), records):
            assert record["exit"] == 2 and record["stdout"] == "", lineno
            assert record["stderr"].startswith("usage: vacmc batch") and f"error: line {lineno}: " in record["stderr"]
        assert records[-2] == _record(["check", "--help"]) and records[-2]["exit"] == 0
        assert records[-1] == _record(["table1"])

    def test_an_unreadable_input_is_an_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "batch", str(tmp_path / "absent.jsonl"))
        assert (code, out) == (1, "") and err.startswith("error: cannot read batch input")
        code, out, err = run(capsys, "batch", str(tmp_path))
        assert (code, out) == (1, "") and "Is a directory" in err

    def test_a_two_model_command_parses_each_model_once(self, capsys, monkeypatch, tmp_path):
        left, right = tmp_path / "K.kr", tmp_path / "K2.kr"
        left.write_text(render_kripke(cli.load_fixture("M")))
        right.write_text(render_kripke(cli.load_fixture("L")))
        built = _counting_parses(monkeypatch)
        lines = [["bisim", str(left), str(right), "--props", "p", "--format", "json"],
                 ["simulates", str(left), str(right), "--props", "p"]] * 3
        code, records = _batch(capsys, lines)
        assert code == 0 and [r["exit"] for r in records] == [0] * 6
        assert records[:2] == records[2:4] == records[4:] and len(built) == 2

    def test_a_model_rewritten_between_lines_is_read_again(self, capsys, monkeypatch, tmp_path):
        built = _counting_parses(monkeypatch)
        model = tmp_path / "K.kr"
        line = json.dumps(["check", str(model), "AG p"]).encode() + b"\n"

        def lines():  # the model is rewritten after the first record is written
            model.write_text("kripke K\nprops: p\ninit: s0\nstate s0: p\ntrans: s0 s0\n")
            yield line
            model.write_text("kripke K\nprops: p\ninit: s0\nstate s0:\ntrans: s0 s0\n")
            yield line

        monkeypatch.setattr(sys, "stdin", mock.Mock(buffer=lines()))
        code, out, _ = run(capsys, "batch")
        values = [json.loads(record)["stdout"].splitlines()[0] for record in out.splitlines()]
        assert code == 0 and values == ["value: True", "value: False"] and len(built) == 2

    def test_a_pipe_gets_each_record_before_the_next_line(self):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        env.pop("PYTHONUNBUFFERED", None)  # standard output to a pipe is block-buffered: batch must flush
        with subprocess.Popen([sys.executable, "-m", "vacmc.cli", "batch"], stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env) as batch:
            for argv, code in ((["check", "L", "AG p"], 0), (["check", "L"], 2), (["check", "nope.kr", "AG p"], 1)):
                batch.stdin.write(json.dumps(argv).encode() + b"\n")
                batch.stdin.flush()
                assert select.select([batch.stdout], [], [], 60)[0], "no record within 60 s"
                assert json.loads(batch.stdout.readline())["exit"] == code
            batch.stdin.close()
            assert batch.stdout.read() == b"" and batch.wait(timeout=60) == 0


_SET_ATOMS = ["{a0}@L", "{b0,b1}@M", "{d1}@Q", "{d0,d3}@Q", "{x1}@chi", "{s0}@T3", "{a0}@nope"]


def _fuzz_text(rng):
    """A fixture's text or the 3-valued T3, with lines dropped, duplicated or cut."""
    name = rng.choice(kripke.FIXTURE_NAMES)
    text = THREE_VALUED if rng.random() < 0.15 else render_kripke(kripke.load_fixture(name))
    lines = text.splitlines(keepends=True)
    for _ in range(rng.randint(0, 2)):
        i, edit = rng.randrange(len(lines)), rng.choice(["drop", "duplicate", "cut"])
        if edit == "drop" and len(lines) > 1:
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines[i] = lines[i][:rng.randrange(len(lines[i]) + 1)]
    return "".join(lines)


def _fuzz_formula(rng, quantified=None):
    """(formula text, a subformula's text): a CTL, E-path or A-path body over
    p, q and x, at times with a set atom for one atom and a root quantifier."""
    props = ("p", "q", "x")
    quantified = rng.random() < 0.25 if quantified is None else quantified
    if quantified:
        props += ("y",)
    body = rng.choice([rand_ctl(rng, props, 3), F.PathE(rand_path(rng, props, 3)),
                       F.PathA(rand_path(rng, props, 2))])
    sub = F.render_formula(rng.choice(sorted(F.subformulas(body), key=F.render_formula)))
    text = F.render_formula(body)
    if rng.random() < 0.3:
        text = re.sub(r"\b[pqx]\b", lambda m: rng.choice(_SET_ATOMS), text, count=1)
    if quantified:
        text = f"{rng.choice(['forall', 'exists'])} y . {text}"
    return text, sub


def _fuzz_argv(rng, models):
    """A random argument list for a command other than table1 and batch."""
    command = rng.choice(["check", "vacuity", "vacuity", "vacuity", "bisim", "simulates", "quotient", "qctl",
                          "translate"])
    model = rng.choice(models)
    if command == "check":
        argv = [model, _fuzz_formula(rng)[0]]
    elif command == "vacuity":
        phi, sub = _fuzz_formula(rng)
        argv = [model, phi, "--sub", rng.choice([sub, sub, "p", "X p"])]
        if rng.random() < 0.7:
            argv += ["--via", rng.choice(["auto", "mono", "satx", "thorough", "structure"])]
        if rng.random() < 0.2:
            argv += ["--bound", rng.choice(["0", "2", "20"])]
        if rng.random() < 0.1:
            argv += ["--bounded-validity", rng.choice(["1", "2"])]
    elif command in ("bisim", "simulates"):
        argv = [model, rng.choice(models), "--props", rng.choice(["p", "p,q", "x"])]
    elif command == "quotient":
        argv = [model] + (["--props", rng.choice(["p", "q"])] if rng.random() < 0.3 else [])
    elif command == "qctl":
        argv = [model, _fuzz_formula(rng, quantified=rng.random() < 0.9)[0],
                "--semantics", rng.choice(["structure", "tree", "bisim"])]
    else:
        what = rng.choice(["ez", "f", "g", "decode"])
        source = model if what in ("ez", "decode") else _fuzz_formula(rng)[0]
        argv = [what, source, "--order", rng.choice(["p", "p,q"])]
        if what == "decode":
            argv += ["--props", "p"]
    return [command, *argv] + (["--format", "json"] if rng.random() < 0.5 else [])


class TestBatchFuzz:
    def test_random_argument_lists_end_in_no_internal_error_and_ignore_the_holds(self, capsys, rng, tmp_path):
        """Random argument lists over fixtures and edited .kr texts: each record
        has exit 0, 1 or 2 and no internal error, and equals the record of the
        same list run alone with the held models, formulas and closures
        emptied first."""
        models = list(kripke.FIXTURE_NAMES) * 2
        for i in range(10):
            path = tmp_path / f"e{i}.kr"
            path.write_text(_fuzz_text(rng))
            models.append(str(path))
        argvs = [_fuzz_argv(rng, models) for _ in range(500)]
        code, records = _batch(capsys, argvs)
        assert code == 0 and len(records) == len(argvs)
        for argv, record in zip(argvs, records):
            assert record["exit"] in (0, 1, 2) and "error: internal" not in record["stderr"], (argv, record)
        alone = []
        for argv in argvs:
            kripke._held.clear()
            F._held.clear()
            mc._closure_cache.clear()
            alone += _batch(capsys, [argv])[1]
        assert alone == records
        assert {r["exit"] for r in records} == {0, 1, 2}


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
      "witness": {"structure": "L^(2)^2", "labeling": {"(a0,0)": True, "(a0,1)": False},
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
    # a definite compositional value that is K's verdict proves vacuity under auto as under thorough
    (("vacuity", "O", "EX (q | p | !p)", "--sub", "p"), 0,
     {"status": "vacuous", "route": "compositional", "witness": {"compositional": "true"}}),
    (("vacuity", "O", "EX (q | p | !p)", "--sub", "p", "--via", "thorough"), 0,
     {"status": "vacuous", "route": "compositional", "witness": {"compositional": "true"}}),
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
    # K_x is built on K's states, so K's set atom is its own there and the
    # compositional bound reads it
    (("vacuity", "M", "AG ((AX p) | (EX !p)) | {b1}@M", "--sub", "p"), 2,
     {"status": "unknown", "route": "unknown", "bounds": {"compositional": "maybe", "labeling_agreement": True}}),
    (("vacuity", "M", "AG ((AX p) | (EX !p)) | {b1}@M", "--sub", "p", "--via", "thorough"), 2,
     {"status": "unknown", "route": "thorough", "bounds": {"compositional": "maybe", "labeling": "true"}}),
    (("vacuity", "L", "EX {a0}@L | AX p", "--sub", "p", "--via", "thorough"), 0,
     {"status": "vacuous", "route": "compositional", "witness": {"compositional": "true"}}),
    # Q has two initial states, each asked on Q itself, where Q's set atoms are its own
    (("vacuity", "Q", "EF (p & {d1}@Q) & EF (!p & {d0}@Q)", "--sub", "p"), 0,
     {"status": "vacuous", "route": "falx"}),
    (("vacuity", "Q", "AG (p -> {d1}@Q) & EX !p", "--sub", "p", "--via", "thorough"), 0,
     {"status": "non-vacuous", "route": "thorough", "witness": {"thorough": "maybe"}}),
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
    # K's set atoms are read on K||X (through a bisimulation) as on K
    (("qctl", "Q", "forall y . AG (y -> {d1,d3}@Q)", "--semantics", "bisim"), 0,
     {"value": False, "route": "KParallelX"}),
    (("qctl", "Q", "forall y . AG (y -> {d1,d3}@Q)", "--semantics", "tree"), 0,
     {"value": False, "route": "PathFormulaEquivalence"}),
    # the routes asked by name
    (("vacuity", "L", "AG (p | AX p)", "--sub", "p", "--via", "mono"), 0,
     {"status": "non-vacuous", "route": "monotone", "gated": True}),
    (("vacuity", "L", "(EX p) | (AX !p)", "--sub", "p", "--via", "mono"), 0,
     {"status": "vacuous", "route": "monotone", "gated": False}),
    (("vacuity", "L", "AG (p -> AX p)", "--sub", "p", "--via", "satx"), 0,
     {"status": "non-vacuous", "route": "satx"}),
    (("vacuity", "M", "AG ((AX p) | (AX !p)) | EF (p & !p)", "--sub", "p", "--via", "structure"), 0,
     {"status": "non-vacuous", "route": "structure", "witness": {"satisfying_set": [], "falsifying_set": ["b0"]}}),
]


class TestRouteContract:
    """Each route's whole --format json result, evidence and bounds included."""

    @pytest.mark.parametrize("argv,code,result", ROUTES, ids=[" ".join(a) for a, _, _ in ROUTES])
    def test_route(self, capsys, argv, code, result):
        got, out, _ = run(capsys, *argv, "--format", "json")
        assert (got, json.loads(out)["result"]) == (code, result)

    @pytest.mark.parametrize("formula", ["AG (p | AX p)", "(EX p) | (AX !p)"])
    def test_the_mono_route_writes_no_warning(self, capsys, recwarn, formula):
        """gated: false in the report says what the library's warning would."""
        code, out, err = run(capsys, "vacuity", "L", formula, "--sub", "p", "--via", "mono")
        assert code == 0 and "route: monotone" in out and err == "" and not recwarn.list
