"""Command-line front end: vacmc check|vacuity|bisim|simulates|quotient|qctl|translate|table1.

Exit codes: 0 for a successful evaluation (the verdict is in the report),
2 for Unknown, 1 for any error.
"""

import argparse
import functools
import json
import os
import sys
import time
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

from . import formula as F
from . import qctl, three_valued, vacuity
from .bisim import bisimilar_over, quotient_bisim, simulates_over
from .errors import KripkeError, OrderingError, VacmcError
from .kripke import load_fixture, parse_kripke, render_kripke
from .mc import check_and_explain
from .reductions import PropOrdering, decode_single_prop, ez_encode, f_translate_ctl, g_translate_ctl_star
from .vacuity import VacuityStatus


def _load_model(target):
    if os.path.exists(target):
        try:
            with open(target) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as e:
            raise KripkeError(f"cannot read model {target!r}: {getattr(e, 'strerror', None) or e}") from None
        return parse_kripke(text)
    return load_fixture(target)


def _count(text):
    """An option value that must be a non-negative int; argparse reports a
    refusal as a usage error, exit 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {text!r}")
    return value


def _parse_props(text):
    return tuple(p for chunk in text.split(",") for p in chunk.split() if p)


def _parse_order(text):
    items = _parse_props(text)
    if any("=" in item for item in items):
        mapping = {}
        for item in items:
            p, _, i = item.partition("=")
            try:
                mapping[p] = int(i)
            except ValueError as e:
                raise OrderingError(str(e)) from None
        return PropOrdering(mapping)
    return PropOrdering.from_props(items)


def _dumps(obj, indent="\n"):
    """json.dumps(obj, indent=2), byte for byte, for str-keyed trees.

    With an indent, json falls back to its pure-Python encoder; here strings
    go through its C quoting, and a list of equal-length rows of strings (a
    relation) fills one %-template per row, all in one % with each distinct
    cell quoted once.
    """
    inner = indent + "  "
    if isinstance(obj, dict):
        items = [f"{inner}{_quote(key)}: {_dumps(value, inner)}" for key, value in obj.items()]
        return "{" + ",".join(items) + indent + "}" if items else "{}"
    if not isinstance(obj, (list, tuple)):
        return _quote(obj) if isinstance(obj, str) else json.dumps(obj)
    if not obj:
        return "[]"
    sep = "," + inner
    kinds = set(map(type, obj))
    if kinds == {str}:
        body = sep.join(map(_quote, obj))
    elif (kinds <= {list, tuple} and obj[0] and len(set(map(len, obj))) == 1
          and set(map(type, chain.from_iterable(obj))) == {str}):
        row = "[" + ",".join([inner + "  %s"] * len(obj[0])) + inner + "]"
        distinct = set(chain.from_iterable(obj))
        quoted = dict(zip(distinct, map(_quote, distinct)))
        body = sep.join([row] * len(obj)) % tuple(map(quoted.__getitem__, chain.from_iterable(obj)))
    else:
        body = sep.join([_dumps(item, inner) for item in obj])
    return "[" + inner + body + indent + "]"


class _Report:
    def __init__(self, args, inputs):
        self.started = time.monotonic()
        self.data = {
            "command": args.command,
            "inputs": inputs,
            "result": {},
            "meta": {"seed": int(os.environ.get("VACMC_SEED", "0")), "elapsed_ms": None},
        }

    def finish(self, result, fmt):
        self.data["result"] = result
        self.data["meta"]["elapsed_ms"] = round((time.monotonic() - self.started) * 1000, 3)
        if fmt == "json":
            print(_dumps(self.data))
        else:
            for key, value in result.items():
                if isinstance(value, (dict, list)):
                    value = json.dumps(value)
                print(f"{key}: {value}")


def _cmd_check(args):
    k = _load_model(args.model)
    phi = F.parse_formula(args.formula)
    report = _Report(args, {"model": args.model, "formula": args.formula})
    if isinstance(phi, F.QUANTIFIED):
        raise VacmcError("quantified formulas go through the qctl subcommand")
    if k.is_classical:
        value, witness = check_and_explain(k, phi)
        result = {"value": value}
        if witness is not None:
            result["witness"] = witness
    else:
        v = three_valued.eval_compositional3(k, phi)
        result = {"value": {"true": "T", "maybe": "M", "false": "F"}[v.value]}
    report.finish(result, args.format)
    return 0


def _cmd_vacuity(args):
    k = _load_model(args.model)
    phi = F.parse_formula(args.formula)
    psi = F.parse_formula(args.sub)
    report = _Report(args, {"model": args.model, "formula": args.formula, "sub": args.sub})
    via = args.via
    if via in ("auto", "thorough"):
        if via == "auto":
            verdict = vacuity.decide_bisim_vacuity(phi, psi, k, bounded_validity=args.bounded_validity,
                                                   bound=args.bound)
        else:
            verdict = three_valued.vacuity_via_thorough(phi, psi, k, bound=args.bound)
        report.finish(verdict.to_dict(), args.format)
        return 2 if verdict.status is VacuityStatus.UNKNOWN else 0
    if via == "mono":
        value = vacuity.is_mon_vacuous(phi, psi, k)
        result = {"status": "vacuous" if value else "non-vacuous", "route": "monotone",
                  "gated": vacuity.syntactic_monotone(phi, psi)}
    elif via == "satx":
        value = vacuity.is_sat_vacuous(phi, psi, k)
        result = {"status": "vacuous" if value else "non-vacuous", "route": "satx"}
    else:  # structure
        flag, witness = vacuity.structure_vacuous(phi, psi, k, bound=args.bound)
        result = {"status": "vacuous-by-structure" if flag else "non-vacuous", "route": "structure"}
        if witness is not None:
            result["witness"] = {"satisfying_set": list(witness[0]), "falsifying_set": list(witness[1])}
    report.finish(result, args.format)
    return 0


def _cmd_relation(args):
    k1 = _load_model(args.left)
    k2 = _load_model(args.right)
    over = _parse_props(args.props)
    report = _Report(args, {"model": args.left, "other": args.right, "props": list(over)})
    rel = (bisimilar_over if args.command == "bisim" else simulates_over)(k1, k2, over)
    result = {"value": rel is not None}
    if rel is not None:
        result["relation"] = rel.sorted_pairs()
    report.finish(result, args.format)
    return 0


def _cmd_quotient(args):
    k = _load_model(args.model)
    over = _parse_props(args.props) if args.props else None
    report = _Report(args, {"model": args.model, "props": list(over) if over else None})
    q = quotient_bisim(k, over)
    report.finish({"states": q.n, "kripke": render_kripke(q)}, args.format)
    return 0


def _cmd_qctl(args):
    k = _load_model(args.model)
    q = F.parse_formula(args.formula)
    if not isinstance(q, F.QUANTIFIED):
        raise VacmcError("qctl expects a root-quantified formula (forall x . ... / exists x . ...)")
    report = _Report(args, {"model": args.model, "formula": args.formula, "semantics": args.semantics})
    if args.semantics == "structure":
        value, labeling = qctl.eval_structural(k, q, bound=args.bound)
        result = {"value": value, "route": qctl.BRUTE_FORCE_Y}
        if labeling is not None:
            result["witness"] = {"labeling": list(labeling)}
        report.finish(result, args.format)
        return 0
    fn = qctl.eval_tree if args.semantics == "tree" else qctl.eval_bisimulation
    r = fn(k, q, bound=args.bound)
    result = {"value": r.value, "route": r.route}
    if r.witness is not None:
        result["witness"] = r.witness
    report.finish(result, args.format)
    return 2 if r.value is None else 0


def _cmd_translate(args):
    report = _Report(args, {"what": args.what, "input": args.input})
    o = _parse_order(args.order)
    if args.what == "ez":
        k = _load_model(args.input)
        report.finish({"kripke": render_kripke(ez_encode(k, o, args.z))}, args.format)
    elif args.what in ("f", "g"):
        phi = F.parse_formula(args.input)
        fn = f_translate_ctl if args.what == "f" else g_translate_ctl_star
        report.finish({"formula": F.render_formula(fn(phi, o, args.z))}, args.format)
    else:  # decode
        m = _load_model(args.input)
        if not args.props:
            raise VacmcError("decode requires --props")
        k = decode_single_prop(m, _parse_props(args.props), o, args.z)
        report.finish({"kripke": render_kripke(k)}, args.format)
    return 0


def _table1_lines():
    models = [load_fixture("L"), load_fixture("M")]
    properties = [
        "forall x . AG (x -> AX x)",
        "forall x . AG ((AX x) | (AX !x))",
        "forall x . A ((X x) | (X !x))",
    ]
    header = f"{'model':<6} {'property':<33} {'structure':<18} {'tree':<29} {'bisimulation'}"
    lines = [header, "-" * len(header)]
    for text in properties:
        q = F.parse_formula(text)
        for k in models:
            sv, _ = qctl.eval_structural(k, q)
            tr = qctl.eval_tree(k, q)
            br = qctl.eval_bisimulation(k, q)
            cells = (
                f"{str(sv).lower()}/{qctl.BRUTE_FORCE_Y}",
                f"{str(tr.value).lower()}/{tr.route}",
                f"{str(br.value).lower()}/{br.route}",
            )
            lines.append(f"{k.name:<6} {text:<33} {cells[0]:<18} {cells[1]:<29} {cells[2]}")
    return lines


def _cmd_table1(args):
    for line in _table1_lines():
        print(line)
    return 0


@functools.cache
def _parser():
    """The argument parser, built once per process; parse_args fills a fresh
    namespace on every call, so nothing carries over between calls."""
    parser = argparse.ArgumentParser(prog="vacmc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--bound", type=_count, default=20, help="refuse 2^|S| enumerations past this size")

    p = sub.add_parser("check", help="model-check a formula (2- or 3-valued)")
    p.add_argument("model")
    p.add_argument("formula")
    common(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("vacuity", help="decide vacuity of a subformula")
    p.add_argument("model")
    p.add_argument("formula")
    p.add_argument("--sub", required=True)
    p.add_argument("--via", choices=("auto", "mono", "satx", "thorough", "structure"), default="auto")
    p.add_argument("--bounded-validity", type=_count, default=None, metavar="N")
    common(p)
    p.set_defaults(fn=_cmd_vacuity)

    for name, help_text in (("bisim", "greatest bisimulation"), ("simulates", "does A simulate B")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("left")
        p.add_argument("right")
        p.add_argument("--props", required=True)
        common(p)
        p.set_defaults(fn=_cmd_relation)

    p = sub.add_parser("quotient", help="bisimulation quotient")
    p.add_argument("model")
    p.add_argument("--props", default=None)
    common(p)
    p.set_defaults(fn=_cmd_quotient)

    p = sub.add_parser("qctl", help="evaluate a quantified formula")
    p.add_argument("model")
    p.add_argument("formula")
    p.add_argument("--semantics", choices=("structure", "tree", "bisim"), required=True)
    common(p)
    p.set_defaults(fn=_cmd_qctl)

    p = sub.add_parser("translate", help="hardness-reduction encodings")
    p.add_argument("what", choices=("ez", "f", "g", "decode"))
    p.add_argument("input")
    p.add_argument("--order", required=True, help="comma list: 'p,q' or 'p=1,q=2'")
    p.add_argument("--props", default=None, help="decoded propositions (decode only)")
    p.add_argument("--z", default="z")
    common(p)
    p.set_defaults(fn=_cmd_translate)

    p = sub.add_parser("table1", help="reproduce the three-semantics comparison grid")
    common(p)
    p.set_defaults(fn=_cmd_table1)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except VacmcError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # a fault of vacmc itself: still one line, no traceback
        message = " ".join(str(e).split())
        print(f"error: internal {type(e).__name__}" + (f": {message}" if message else ""), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
