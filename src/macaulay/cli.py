"""Batch front-end: build posets and rings, run verifiers, emit reports.

Exit codes: 0 property holds / command succeeded, 1 property fails,
2 usage error, 3 resource cap hit, 4 correspondence hypotheses failed.
JSON is the machine interface; the text output is a short human summary.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import time
from functools import cache

from . import __version__, families
from .errors import MacaulayLibError, OrderError, PosetError, ResourceLimitError, RingError, excerpt
from .hilbert import (
    RingContext,
    hilbert_function,
    ideal_in_ring,
    initial_monomial_data,
    is_macaulay_ring,
)
from .families import order_from_recipe
from .orders import _recipe_kind, ascii_int
from .poset import (
    cube_coordinates,
    export_dot,
    export_json,
    poset_from_dict,
    poset_to_dict,
)
from .rings import (
    FieldSpec,
    Polynomial,
    QuotientRingSpec,
    build_ring,
    is_level_linearly_independent,
    recognize_tree_ring,
)
from .verify import DEFAULT_SUBSET_CAP, is_macaulay

EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_HYPOTHESIS = 4


def _read_json(path, what, error):
    """The JSON value of an input file; one not UTF-8 JSON, or too deep to decode, raises `error`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as e:
        raise error(f"{what} {excerpt(path)} is not UTF-8: {e}") from None
    except json.JSONDecodeError as e:
        raise error(f"{what} {excerpt(path)} is not valid JSON: {e}") from None
    except RecursionError:
        raise error(f"{what} {excerpt(path)} nests too deeply to decode") from None


def _is_file(spec):
    """Whether a --poset or --spec argument names a file rather than a builtin descriptor."""
    return os.path.exists(spec) or spec.endswith(".json")


def _load_poset(spec_str, field, recipe=None):
    """The poset, and the builtin it came from (None for a poset file)."""
    if _is_file(spec_str):
        return poset_from_dict(_read_json(spec_str, "poset file", PosetError)), None
    built = families.builtin(spec_str, field, recipe)
    return built.poset, built


def _order_recipe_from_arg(arg):
    """The recipe of a bare kind, dom:<perm> or a recipe file, checked before anything is
    built, except a bare family-default, which stands for the builtin's own recipe."""
    if arg.startswith("dom:"):
        try:
            recipe = {"kind": "dom", "perm": [ascii_int(x) for x in arg[4:].split(",")]}
        except ValueError:
            raise OrderError(f"dom order wants comma-separated integers, got {excerpt(arg)}") from None
    elif arg.startswith(("block:", "explicit:", "recipe:")):
        path = arg.partition(":")[2]
        recipe = _read_json(path, "order file", OrderError)
        if not isinstance(recipe, dict):
            raise OrderError(f"order file {excerpt(path)} holds no recipe object")
    else:
        recipe = {"kind": arg}
    if recipe != {"kind": "family-default"}:
        _recipe_kind(recipe)
    return recipe


def _resolve_order(poset, recipe, built):
    if recipe == {"kind": "family-default"}:
        if built is None:
            raise OrderError("family-default needs a builtin descriptor")
        recipe = built.order_recipe()
    return order_from_recipe(poset, recipe)


def _write(directory, name, text):
    """Write `text` to the file `name` in `directory`, made if missing; the path written."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _report(inputs, hashed, verdict, timing, **rest):
    """A check's report: `inputs` with the content hash of `hashed`, the verdict and timing."""
    parts = (json.dumps(part, sort_keys=True, default=str).encode() for part in hashed)
    inputs["content_hash"] = "sha256:" + hashlib.sha256(b"".join(parts)).hexdigest()
    tool = {"name": "macaulay", "version": __version__}
    return {"tool": tool, "inputs": inputs, "verdict": verdict, "timing": timing, **rest}


def _emit(report, args):
    text = json.dumps(report, indent=2, sort_keys=True, default=str)
    if args.out:
        _write(args.out, "report.json", text + "\n")
    if args.json:
        print(text)


def cmd_check_poset(args):
    recipe = _order_recipe_from_arg(args.order)
    poset, built = _load_poset(args.poset, _field(args), recipe)
    table = _resolve_order(poset, recipe, built)
    t0 = time.perf_counter()
    verdict = is_macaulay(
        poset,
        table,
        direction=args.direction,
        max_subsets=args.max_subsets,
        all_failures=args.all_failures,
    )
    report = _report(
        {"poset": args.poset, "order": table.recipe, "direction": args.direction},
        (poset_to_dict(poset), table.recipe, args.direction),
        verdict.to_dict(poset),
        {"seconds": time.perf_counter() - t0},
        field=built.ring_spec.field.to_json() if built and built.ring_spec else None,
    )
    _emit(report, args)
    if not args.json:
        word = "Macaulay" if verdict.holds else "NOT Macaulay"
        print(f"{args.poset} with {args.order} ({args.direction}): {word}")
        for f in verdict.failures:
            print("  " + f.describe(poset))
    return 0 if verdict.holds else EXIT_FAIL


def _field(args):
    return FieldSpec.from_json(args.field) if args.field else FieldSpec()


def _load_ring(args):
    """The ring's context, and the builtin it came from (None for a spec file)."""
    field = _field(args)
    if _is_file(args.spec):
        spec = QuotientRingSpec.from_json(_read_json(args.spec, "ring spec", RingError))
        return RingContext(build_ring(spec.with_field(field) if args.field else spec)), None
    built = families.ring_builtin(args.spec, field)
    return RingContext(built.ring), built


def cmd_check_ring(args):
    recipe = _order_recipe_from_arg(args.order)
    t_build = time.perf_counter()
    ctx, built = _load_ring(args)
    build_seconds = time.perf_counter() - t_build
    ring = ctx.ring
    table = _resolve_order(ctx.poset, recipe, built)
    t0 = time.perf_counter()
    verdict = is_macaulay_ring(
        ring,
        table,
        mode=args.mode,
        max_gen_degree=args.max_gen_degree,
        allow_non_lli=args.allow_non_lli,
        max_subsets=args.max_subsets,
    )
    field = ring.spec.field.to_json()
    report = _report(
        {"spec": args.spec, "order": table.recipe, "mode": args.mode, "field": field},
        (ring.spec.to_json(), table.recipe, args.mode),
        verdict.to_dict(ctx.poset),
        {"seconds": time.perf_counter() - t0, "build_seconds": build_seconds},
    )
    _emit(report, args)
    if not args.json:
        if verdict.holds is None:
            print(f"{args.spec}: correspondence hypotheses failed ({verdict.hypothesis_reason})")
        else:
            word = "Macaulay" if verdict.holds else "NOT Macaulay"
            extra = "" if verdict.agreement is None else f" (modes agree: {verdict.agreement})"
            print(f"{args.spec} with {args.order} [{args.mode}]: {word}{extra}")
    if verdict.holds is None:
        return EXIT_HYPOTHESIS
    return 0 if verdict.holds else EXIT_FAIL


def _order_json(poset, built, recipe):
    table = _resolve_order(poset, recipe, built)
    order = {"recipe": table.recipe, "labels": table.labels_in_order()}
    return json.dumps(order, sort_keys=True, default=str) + "\n"


# per --what kind, in writing order: the file, and its text from (poset, builtin, recipe)
_EXPORTS = {
    "poset-json": ("poset.json", lambda poset, *_: export_json(poset) + "\n"),
    "poset-dot": ("poset.dot", lambda poset, *_: export_dot(poset)),
    "cubes": ("cubes.json", lambda poset, *_: json.dumps(cube_coordinates(poset), sort_keys=True) + "\n"),
    "order": ("order.json", _order_json),
}


def cmd_export(args):
    what = args.what.split(",")
    unknown = [k for k in what if k not in _EXPORTS]
    if unknown:
        raise MacaulayLibError(f"unknown --what kinds: {', '.join(map(repr, unknown))}")
    recipe = _order_recipe_from_arg(args.order) if "order" in what else None
    poset, built = _load_poset(args.poset, _field(args), recipe)
    for kind, (name, text) in _EXPORTS.items():
        if kind in what:
            print(_write(args.out, name, text(poset, built, recipe)))
    return 0


def _load_ideal(ctx, path):
    data = _read_json(path, "ideal", RingError)
    if not isinstance(data, dict) or not isinstance(data.get("generators"), list):
        raise RingError(f"ideal {excerpt(path)} lacks a generators list")
    gens = [Polynomial.from_json(g, ctx.ring.spec.d) for g in data["generators"]]
    return ideal_in_ring(ctx, gens)


def cmd_ring(args):
    sub = args.ring_cmd
    recipe = _order_recipe_from_arg(args.order) if sub == "ims" else None
    ctx, built = _load_ring(args)
    ring = ctx.ring
    if sub == "build":
        out = {
            "field": ring.spec.field.to_json(),
            "D": ring.D,
            "hilbert": list(ring.hilbert()),
            "classes_per_degree": [len(ids) for ids in ring.levels],
        }
        print(json.dumps(out, indent=2, sort_keys=True))
        return 0
    if sub == "poset":
        if args.format == "dot":
            print(export_dot(ctx.poset), end="")
        else:
            print(export_json(ctx.poset))
        return 0
    if sub == "lli":
        flag, deg = is_level_linearly_independent(ring)
        print(json.dumps({"level_linearly_independent": flag, "failing_degree": deg}))
        return 0 if flag else EXIT_FAIL
    if sub == "recognize-tree":
        legs = recognize_tree_ring(ring)
        out = None if legs is None else [{"variable": v + 1, "cap": c} for v, c in legs]
        print(json.dumps({"tree": legs is not None, "legs": out}))
        return 0 if legs is not None else EXIT_FAIL
    if sub == "hilbert":
        ideal = _load_ideal(ctx, args.ideal)
        print(json.dumps({"hilbert": hilbert_function(ctx, ideal)}, sort_keys=True))
        return 0
    ideal = _load_ideal(ctx, args.ideal)  # ims, the last of the parser's choices
    table = _resolve_order(ctx.poset, recipe, built)
    data = initial_monomial_data(ctx, ideal, table)
    out = {
        "ims": [[str(ctx.poset.labels[x]) for x in lvl] for lvl in data.ims],
        "imv_dims": list(data.imv_dims),
        "imi_dims": list(data.imi_dims),
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Exit 2 with one line, as every other usage error does."""
        self.exit(EXIT_USAGE, f"error: {message}\n")


def _int_at_least(low):
    """An argparse type: an int, by `ascii_int`, no smaller than `low`."""

    def parse(text):
        try:
            value = ascii_int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {excerpt(text)}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


@cache  # built once per process: argparse makes a help formatter for each option it adds
def build_parser():
    top = _Parser(prog="macaulay", description=__doc__)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="print the JSON report")
        p.add_argument("--out", help="directory for the report file")
        p.add_argument("--field", help="q or p:<modulus>")
        p.add_argument("--max-subsets", type=_int_at_least(1), default=DEFAULT_SUBSET_CAP)

    cp = sub.add_parser("check-poset", help="verify the Macaulay property of a poset")
    cp.add_argument("--poset", required=True, help="builtin descriptor or JSON file")
    cp.add_argument("--order", required=True)
    cp.add_argument("--direction", choices=["lower", "upper"], default="lower")
    cp.add_argument("--all-failures", action="store_true")
    common(cp)
    cp.set_defaults(fn=cmd_check_poset)

    cr = sub.add_parser("check-ring", help="verify the Macaulay property of a quotient ring")
    cr.add_argument("--spec", required=True, help="builtin ring descriptor or JSON spec file")
    cr.add_argument("--order", required=True)
    cr.add_argument("--mode", choices=["both", "poset", "monomial-ideals"], default="both")
    cr.add_argument("--max-gen-degree", type=_int_at_least(0))
    cr.add_argument("--allow-non-lli", action="store_true")
    common(cr)
    cr.set_defaults(fn=cmd_check_ring)

    ex = sub.add_parser("export", help="write poset/order exports")
    ex.add_argument("--poset", required=True)
    ex.add_argument("--order", default="lex")
    ex.add_argument("--what", default="poset-json,poset-dot")
    ex.add_argument("--out", required=True)
    ex.add_argument("--field", help="q or p:<modulus>")
    ex.set_defaults(fn=cmd_export)

    rg = sub.add_parser("ring", help="ring model commands; `ring check-macaulay` is check-ring")
    rs = rg.add_subparsers(dest="ring_cmd", required=True)
    rc = {c: rs.add_parser(c) for c in ("build", "poset", "lli", "recognize-tree", "hilbert", "ims")}
    for p in rc.values():
        p.add_argument("--spec", required=True)
        p.add_argument("--field", help="q or p:<modulus>")
        p.set_defaults(fn=cmd_ring)
    rc["poset"].add_argument("--format", choices=["json", "dot"], default="json")
    for c in ("hilbert", "ims"):
        rc[c].add_argument("--ideal", required=True)
    rc["ims"].add_argument("--order", default="rep-lex")
    return top


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:2] == ["ring", "check-macaulay"]:  # an alias, so the check has one parser
        argv[:2] = ["check-ring"]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = args.fn(args)
    except ResourceLimitError as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except (MacaulayLibError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        sys.stdout.write(out.getvalue())
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (say `| head -1`); the verdict stands.
        # Point stdout at devnull so that the flush at interpreter exit is silent.
        sys.stdout = open(os.devnull, "w")
    return code


if __name__ == "__main__":
    sys.exit(main())
