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

from . import __version__, families
from .errors import MacaulayLibError, OrderError, PosetError, ResourceLimitError, RingError
from .hilbert import (
    RingContext,
    hilbert_function,
    ideal_in_ring,
    initial_monomial_data,
    is_macaulay_ring,
)
from .orders import order_from_recipe
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
    """The JSON value of an input file; a file that is not UTF-8 JSON raises `error` naming it."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as e:
        raise error(f"{what} {path!r} is not UTF-8: {e}") from None
    except json.JSONDecodeError as e:
        raise error(f"{what} {path!r} is not valid JSON: {e}") from None


def _load_poset(spec_str, field):
    if os.path.exists(spec_str) or spec_str.endswith(".json"):
        return poset_from_dict(_read_json(spec_str, "poset file", PosetError)), None
    return None, families.builtin(spec_str, field)


def _order_recipe_from_arg(arg):
    if arg in ("lex", "colex", "hc", "bc", "rep-lex", "family-default"):
        return {"kind": arg}
    if arg.startswith("dom:"):
        try:
            return {"kind": "dom", "perm": [int(x) for x in arg[4:].split(",")]}
        except ValueError:
            raise OrderError(f"dom order wants comma-separated integers, got {arg!r}") from None
    for prefix in ("block:", "explicit:", "recipe:"):
        if arg.startswith(prefix):
            path = arg[len(prefix):]
            recipe = _read_json(path, "order file", OrderError)
            if not isinstance(recipe, dict):
                raise OrderError(f"order file {path!r} holds no recipe object")
            return recipe
    raise OrderError(f"unknown order recipe {arg!r}")


def _resolve_order(poset, arg, built):
    recipe = _order_recipe_from_arg(arg)
    if recipe.get("kind") == "family-default" and "family" not in recipe:
        if built is None:
            raise OrderError("family-default needs a builtin descriptor")
        recipe = built.order_recipe()
    return order_from_recipe(poset, recipe)


def _content_hash(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(json.dumps(part, sort_keys=True, default=str).encode())
    return "sha256:" + h.hexdigest()


def _emit(report, args):
    text = json.dumps(report, indent=2, sort_keys=True, default=str)
    if getattr(args, "out", None):
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "report.json")
        with open(path, "w") as fh:
            fh.write(text + "\n")
    if getattr(args, "json", False):
        print(text)


def cmd_check_poset(args):
    poset, built = _load_poset(args.poset, _field(args))
    if poset is None:
        poset = built.poset
    table = _resolve_order(poset, args.order, built)
    t0 = time.perf_counter()
    verdict = is_macaulay(
        poset,
        table,
        direction=args.direction,
        max_subsets=args.max_subsets,
        all_failures=args.all_failures,
    )
    report = {
        "tool": {"name": "macaulay", "version": __version__},
        "inputs": {
            "poset": args.poset,
            "order": table.recipe,
            "direction": args.direction,
            "content_hash": _content_hash(poset_to_dict(poset), table.recipe, args.direction),
        },
        "field": built.ring_spec.field.to_json() if built and built.ring_spec else None,
        "verdict": verdict.to_dict(poset),
        "timing": {"seconds": time.perf_counter() - t0},
    }
    _emit(report, args)
    if not args.json:
        word = "Macaulay" if verdict.holds else "NOT Macaulay"
        print(f"{args.poset} with {args.order} ({args.direction}): {word}")
        for f in verdict.failures:
            print("  " + f.describe(poset))
    return 0 if verdict.holds else EXIT_FAIL


def _field(args):
    spec = getattr(args, "field", None)
    if not spec:
        return FieldSpec()
    return FieldSpec.from_json(spec)


def _load_ring(args):
    """The ring's context, and the builtin it came from (None for a spec file)."""
    spec_str = args.spec
    field = _field(args)
    if os.path.exists(spec_str) or spec_str.endswith(".json"):
        spec = QuotientRingSpec.from_json(_read_json(spec_str, "ring spec", RingError))
        if getattr(args, "field", None):
            spec = spec.with_field(field)
        return RingContext(build_ring(spec)), None
    built = families.ring_builtin(spec_str, field)
    return RingContext(built.ring), built


def cmd_check_ring(args):
    t_build = time.perf_counter()
    ctx, built = _load_ring(args)
    build_seconds = time.perf_counter() - t_build
    ring = ctx.ring
    table = _resolve_order(ctx.poset, args.order, built)
    candidate = built.monomial_order_candidate() if built else None
    t0 = time.perf_counter()
    verdict = is_macaulay_ring(
        ring,
        table,
        mode=args.mode,
        max_gen_degree=args.max_gen_degree,
        allow_non_lli=args.allow_non_lli,
        max_subsets=args.max_subsets,
        monomial_order_candidate=candidate,
    )
    report = {
        "tool": {"name": "macaulay", "version": __version__},
        "inputs": {
            "spec": args.spec,
            "order": table.recipe,
            "mode": args.mode,
            "field": ring.spec.field.to_json(),
            "content_hash": _content_hash(ring.spec.to_json(), table.recipe, args.mode),
        },
        "verdict": verdict.to_dict(ctx.poset),
        "timing": {"seconds": time.perf_counter() - t0, "build_seconds": build_seconds},
    }
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


def cmd_export(args):
    poset, built = _load_poset(args.poset, _field(args))
    if poset is None:
        poset = built.poset
    os.makedirs(args.out, exist_ok=True)
    what = args.what.split(",")
    written = []
    if "poset-json" in what:
        path = os.path.join(args.out, "poset.json")
        with open(path, "w") as fh:
            fh.write(export_json(poset) + "\n")
        written.append(path)
    if "poset-dot" in what:
        path = os.path.join(args.out, "poset.dot")
        with open(path, "w") as fh:
            fh.write(export_dot(poset))
        written.append(path)
    if "cubes" in what:
        path = os.path.join(args.out, "cubes.json")
        with open(path, "w") as fh:
            json.dump(cube_coordinates(poset), fh, sort_keys=True)
            fh.write("\n")
        written.append(path)
    if "order" in what:
        table = _resolve_order(poset, args.order, built)
        path = os.path.join(args.out, "order.json")
        with open(path, "w") as fh:
            json.dump(
                {"recipe": table.recipe, "labels": [list(l) if isinstance(l, tuple) else l for l in table.labels_in_order()]},
                fh,
                sort_keys=True,
                default=str,
            )
            fh.write("\n")
        written.append(path)
    for path in written:
        print(path)
    return 0


def _load_ideal(ctx, path):
    data = _read_json(path, "ideal", RingError)
    if not isinstance(data, dict) or not isinstance(data.get("generators"), list):
        raise RingError(f"ideal {path!r} lacks a generators list")
    gens = [Polynomial.from_json(g) for g in data["generators"]]
    return ideal_in_ring(ctx, gens)


def cmd_ring(args):
    sub = args.ring_cmd
    if sub == "check-macaulay":
        return cmd_check_ring(args)
    if sub in ("hilbert", "ims") and args.ideal is None:
        raise RingError(f"ring {sub} needs --ideal <file>")
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
    if sub == "ims":
        ideal = _load_ideal(ctx, args.ideal)
        table = _resolve_order(ctx.poset, args.order, built)
        data = initial_monomial_data(ctx, ideal, table)
        out = {
            "ims": [[str(ctx.poset.labels[x]) for x in lvl] for lvl in data.ims],
            "imv_dims": list(data.imv_dims),
            "imi_dims": list(data.imi_dims),
        }
        print(json.dumps(out, indent=2, sort_keys=True))
        return 0
    raise OrderError(f"unknown ring subcommand {sub!r}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Exit 2 with one line, as every other usage error does."""
        self.exit(EXIT_USAGE, f"error: {message}\n")


def _int_at_least(low):
    """An argparse type: an int no smaller than `low`."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


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

    rg = sub.add_parser("ring", help="ring model commands")
    rg.add_argument("ring_cmd", choices=["build", "poset", "lli", "recognize-tree", "hilbert", "ims", "check-macaulay"])
    rg.add_argument("--spec", required=True)
    rg.add_argument("--ideal")
    rg.add_argument("--order", default="rep-lex")
    rg.add_argument("--format", choices=["json", "dot"], default="json")
    rg.add_argument("--mode", choices=["both", "poset", "monomial-ideals"], default="both")
    rg.add_argument("--max-gen-degree", type=_int_at_least(0))
    rg.add_argument("--allow-non-lli", action="store_true")
    common(rg)
    rg.set_defaults(fn=cmd_ring)
    return top


def main(argv=None):
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
