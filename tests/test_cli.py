import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from unittest import mock

from hypothesis import given, settings, strategies as st

import macaulay as M
from macaulay.cli import main
from macaulay.rings import monomials_of_degree


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_check_poset_macaulay(capsys):
    rc, out, _ = run(capsys, "check-poset", "--poset", "multiset:2,2,2", "--order", "lex")
    assert rc == 0 and "Macaulay" in out


def test_check_poset_failure_exit_and_witness(capsys):
    rc, out, _ = run(capsys, "check-poset", "--poset", "multiset:4,3", "--order", "lex")
    assert rc == 1
    assert "NOT Macaulay" in out and "(3, 0)" in out


def test_check_poset_builtin_family_default(capsys):
    rc, _, _ = run(capsys, "check-poset", "--poset", "builtin:diamond:2", "--order", "family-default")
    assert rc == 0


def test_check_poset_usage_error(capsys):
    rc, _, err = run(capsys, "check-poset", "--poset", "multiset:3,4", "--order", "zigzag")
    assert rc == 2 and "zigzag" in err


def test_check_poset_resource_cap(capsys):
    rc, _, err = run(
        capsys,
        "check-poset", "--poset", "multiset:2,2,2,2,2,2", "--order", "lex",
        "--max-subsets", "1024",
    )
    assert rc == 3 and "resource limit" in err


def test_malformed_limits_are_usage_errors(capsys):
    # a negative --max-gen-degree once checked only the zero ideal and exited 0,
    # and a --max-subsets below 1 exited 3 as if a real cap had been hit
    cases = [
        ["check-ring", "--spec", "cl:4,3", "--order", "lex", "--max-gen-degree", "-1"],
        ["ring", "check-macaulay", "--spec", "cl:4,3", "--order", "lex", "--max-gen-degree", "-1"],
    ]
    for argv in (
        ["check-poset", "--poset", "multiset:3,4", "--order", "lex"],
        ["check-ring", "--spec", "cl:3,4", "--order", "lex"],
        ["ring", "check-macaulay", "--spec", "cl:3,4", "--order", "lex"],
    ):
        cases += [[*argv, "--max-subsets", n] for n in ("0", "-5")]
    for argv in cases:
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == "", argv
        assert err.startswith("error: argument --max-") and err.count("\n") == 1, argv
    rc, _, _ = run(capsys, "check-ring", "--spec", "cl:3,4", "--order", "lex", "--max-gen-degree", "0")
    assert rc == 0


def test_check_ring_modes_agree(capsys):
    rc, out, _ = run(capsys, "check-ring", "--spec", "cl:3,4", "--order", "lex", "--mode", "both")
    assert rc == 0 and "modes agree: True" in out


def test_check_ring_failure(capsys):
    rc, _, _ = run(capsys, "check-ring", "--spec", "cl:4,3", "--order", "lex")
    assert rc == 1


def test_check_ring_hypothesis_failure(tmp_path, capsys):
    spec = {
        "d": 3,
        "field": "q",
        "generators": [
            [{"exp": [2, 0, 0], "coef": "1"}, {"exp": [1, 1, 0], "coef": "1"},
             {"exp": [1, 0, 1], "coef": "-1"}]
        ],
        "D": 2,
    }
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(spec))
    rc, out, _ = run(capsys, "check-ring", "--spec", str(path), "--order", "lex", "--json")
    assert rc == 4
    report = json.loads(out)
    assert report["verdict"]["hypotheses"]["lli_failing_degree"] == 2


def test_check_ring_mixed_order_not_monomial(tmp_path, capsys):
    spec = {"d": 2, "field": "q", "generators": [], "D": 2}
    spec_path = tmp_path / "free.json"
    spec_path.write_text(json.dumps(spec))
    recipe = {"kind": "degree-major", "per_rank": {"1": {"kind": "lex"}}, "default": {"kind": "colex"}}
    rec_path = tmp_path / "order.json"
    rec_path.write_text(json.dumps(recipe))
    rc, out, _ = run(
        capsys,
        "check-ring", "--spec", str(spec_path), "--order", f"recipe:{rec_path}",
        "--mode", "poset", "--json",
    )
    report = json.loads(out)
    # a monomial order exists (the default candidate verifies), but the
    # supplied mixed order is not one, and it is not Macaulay either
    assert report["verdict"]["hypotheses"]["monomial_order_verified"] is True
    assert report["verdict"]["order_is_monomial"] is False
    assert rc == 1


def test_export_roundtrip(tmp_path, capsys):
    rc, out, _ = run(
        capsys,
        "export", "--poset", "multiset:2,2", "--order", "lex",
        "--what", "poset-json,poset-dot,cubes,order", "--out", str(tmp_path),
    )
    assert rc == 0
    poset = M.parse_json((tmp_path / "poset.json").read_text())
    assert poset == M.multiset_lattice([2, 2])
    dot = (tmp_path / "poset.dot").read_text()
    assert dot.count("->") == 4
    cubes = json.loads((tmp_path / "cubes.json").read_text())
    assert len(cubes) == 4
    order = json.loads((tmp_path / "order.json").read_text())
    assert order["labels"][0] == [0, 0]


def test_export_star_roundtrip(tmp_path, capsys):
    rc, _, _ = run(capsys, "export", "--poset", "star:3", "--what", "poset-json", "--out", str(tmp_path))
    assert rc == 0
    poset = M.parse_json((tmp_path / "poset.json").read_text())
    from macaulay.families import star

    assert poset == star(3)


def test_report_determinism(tmp_path, capsys):
    for args in (
        ["check-poset", "--poset", "multiset:3,4", "--order", "lex", "--json"],
        ["check-ring", "--spec", "torus:3,2", "--order", "family-default", "--json"],
    ):
        rc1, out1, _ = run(capsys, *args)
        rc2, out2, _ = run(capsys, *args)
        r1, r2 = json.loads(out1), json.loads(out2)
        timing = r1.pop("timing")
        r2.pop("timing")
        assert r1 == r2
        assert r1["inputs"]["content_hash"].startswith("sha256:")
        if args[0] == "check-ring":
            # the ring build and its context are timed apart from the check
            assert set(timing) == {"seconds", "build_seconds"} and timing["build_seconds"] > 0


def test_ring_subcommands(tmp_path, capsys):
    rc, out, _ = run(capsys, "ring", "build", "--spec", "torus:3,1", "--field", "q")
    assert rc == 0
    data = json.loads(out)
    assert data["hilbert"] == [1, 2, 2, 1]

    rc, out, _ = run(capsys, "ring", "lli", "--spec", "torus:3,1")
    assert rc == 0 and json.loads(out)["level_linearly_independent"]

    rc, out, _ = run(capsys, "ring", "recognize-tree", "--spec", "be-ring:3,2,1")
    assert rc == 0
    assert json.loads(out)["legs"] == [
        {"variable": 1, "cap": 2},
        {"variable": 2, "cap": 2},
    ]

    rc, out, _ = run(capsys, "ring", "recognize-tree", "--spec", "torus:3,1")
    assert rc == 1

    rc, out, _ = run(capsys, "ring", "poset", "--spec", "cl:3,4", "--format", "json")
    assert rc == 0
    assert M.parse_json(out) == M.multiset_lattice([3, 4])


def test_ring_hilbert_and_ims(tmp_path, capsys):
    spec = {"d": 2, "field": "q", "generators": [], "D": 2}
    spec_path = tmp_path / "free.json"
    spec_path.write_text(json.dumps(spec))
    ideal = {"generators": [[{"exp": [1, 0], "coef": "1"}, {"exp": [0, 1], "coef": "1"}]]}
    ideal_path = tmp_path / "ideal.json"
    ideal_path.write_text(json.dumps(ideal))
    rc, out, _ = run(capsys, "ring", "hilbert", "--spec", str(spec_path), "--ideal", str(ideal_path))
    assert rc == 0
    assert json.loads(out)["hilbert"] == {"0": 0, "1": 1, "2": 2}
    rc, out, _ = run(
        capsys, "ring", "ims", "--spec", str(spec_path), "--ideal", str(ideal_path),
        "--order", "rep-lex",
    )
    assert rc == 0
    data = json.loads(out)
    assert data["imv_dims"] == [0, 1, 2] and data["imi_dims"] == [0, 1, 2]


def test_ring_check_macaulay_alias(capsys):
    rc, _, _ = run(capsys, "ring", "check-macaulay", "--spec", "cl:3,4", "--order", "lex")
    assert rc == 0


def test_ring_check_commands_build_the_ring_once(capsys):
    builds = []
    init = M.RingModel.__init__

    def counted(self, spec):
        builds.append(spec)
        init(self, spec)

    with mock.patch.object(M.RingModel, "__init__", counted):
        for argv in (["check-ring"], ["ring", "check-macaulay"]):
            builds.clear()
            rc, _, _ = run(capsys, *argv, "--spec", "cl:3,3,3", "--order", "lex")
            assert rc == 0 and len(builds) == 1, argv


def test_ideal_exponents_must_fit_the_ring(tmp_path, capsys):
    # cl:3,3 has two variables; a short, long or negative exponent vector is refused
    for exp in ([1], [1, 0, 0], [2, -1], [], [-1, 1]):
        ideal = tmp_path / "ideal.json"
        ideal.write_text(json.dumps({"generators": [[{"exp": exp, "coef": "1"}]]}))
        for sub in ("hilbert", "ims"):
            rc, out, err = run(capsys, "ring", sub, "--spec", "cl:3,3", "--ideal", str(ideal))
            assert rc == 2 and out == "", (sub, exp)
            assert err.startswith("error:") and "exponent" in err and err.count("\n") == 1, (sub, exp)


def test_large_prime_modulus(capsys):
    start = time.perf_counter()
    rc, _, _ = run(capsys, "check-ring", "--spec", "kk:3", "--field", "p:2305843009213693951",
                   "--order", "lex")
    assert rc == 0 and time.perf_counter() - start < 5
    # past the range where primality is decided exactly, the modulus is refused
    rc, out, err = run(capsys, "check-ring", "--spec", "kk:3", "--field", f"p:{2**89 - 1}",
                       "--order", "lex")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "below" in err and err.count("\n") == 1


def test_leck_family_default_is_usage_error(capsys):
    rc, _, err = run(capsys, "check-poset", "--poset", "leck:2,1", "--order", "family-default")
    assert rc == 2 and "no published order" in err


def test_large_leck_ring_exits_quickly(capsys):
    # leck:3+3+3,3 has 12 variables and D = 9; built from its six components
    # it reaches the subset cap or the missing family order in well under 3 s
    for order, code, words in (
        ("lex", 3, "resource limit"),
        ("family-default", 2, "no published order"),
    ):
        t0 = time.perf_counter()
        rc, out, err = run(capsys, "check-poset", "--poset", "leck:3+3+3,3", "--order", order)
        assert time.perf_counter() - t0 < 3, order
        assert rc == code and out == "" and words in err and err.count("\n") == 1


def test_oversized_rings_exit_3_before_building(tmp_path, capsys):
    # kk:24 folds 24 factors into 2^24 classes, and the spec file has 29 free
    # variables at D = 30; both are refused from their factors' class counts
    path = tmp_path / "ring.json"
    x1_squared = [{"exp": [2] + [0] * 29, "coef": "1"}]
    path.write_text(json.dumps({"d": 30, "field": "p:32003", "generators": [x1_squared], "D": 30}))
    for argv in (
        ["check-poset", "--poset", "kk:24", "--order", "lex"],
        ["check-ring", "--spec", str(path), "--order", "rep-lex"],
    ):
        t0 = time.perf_counter()
        rc, out, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 2, argv
        assert rc == 3 and out == "" and "(limit 1000000)" in err and err.count("\n") == 1, argv


def test_oversized_poset_builtins_exit_3_before_building(capsys):
    # each is counted from its parameters before any element is made
    for desc in ("multiset:1001,1001,1001", "chain:2000000", "star:2000000",
                 "spider:1000,1000", "be:1000,1000,2", "colored:2000000"):
        t0 = time.perf_counter()
        rc, out, err = run(capsys, "check-poset", "--poset", desc, "--order", "lex")
        assert time.perf_counter() - t0 < 0.5, desc
        assert rc == 3 and out == "" and "(limit 1000000)" in err and err.count("\n") == 1, desc


def test_check_poset_from_file_and_upper_direction(tmp_path, capsys):
    path = tmp_path / "poset.json"
    path.write_text(M.export_json(M.multiset_lattice([3, 4])))
    rc, _, _ = run(capsys, "check-poset", "--poset", str(path), "--order", "lex",
                   "--direction", "upper")
    assert rc == 0
    rc, _, _ = run(capsys, "check-poset", "--poset", str(path), "--order", "family-default")
    assert rc == 2  # no family attached to a plain file


def test_check_poset_writes_report(tmp_path, capsys):
    out = tmp_path / "reports"
    rc, _, _ = run(capsys, "check-poset", "--poset", "multiset:2,2", "--order", "lex",
                   "--out", str(out))
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"]["holds"] is True
    assert report["field"] is None


def test_check_poset_all_failures(capsys):
    rc, out, _ = run(capsys, "check-poset", "--poset", "multiset:4,3", "--order", "lex",
                     "--all-failures", "--json")
    assert rc == 1
    failures = json.loads(out)["verdict"]["failures"]
    assert len(failures) > 1
    assert {f["level"] for f in failures} >= {3}


def test_check_ring_field_flag(capsys):
    rc, out, _ = run(capsys, "check-ring", "--spec", "torus:3,1", "--order", "family-default",
                     "--field", "q", "--json")
    assert rc == 0
    assert json.loads(out)["inputs"]["field"] == "q"


def test_check_ring_non_prime_modulus_is_usage_error(capsys):
    rc, out, err = run(capsys, "check-ring", "--spec", "torus:3,2", "--order", "family-default",
                       "--field", "p:32004")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "32004" in err and err.count("\n") == 1


def test_check_ring_coefficient_not_invertible_is_usage_error(tmp_path, capsys):
    spec = {
        "d": 2,
        "field": "p:32003",
        "generators": [[{"exp": [2, 0], "coef": "1/32003"}, {"exp": [0, 2], "coef": "1"}]],
        "D": 2,
    }
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(spec))
    rc, out, err = run(capsys, "check-ring", "--spec", str(path), "--order", "lex")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "1/32003" in err and err.count("\n") == 1


def test_malformed_builtin_descriptor_is_usage_error(capsys):
    for poset in (
        "multiset:3,x", "spider:2", "multiset:", "multiset:2,,3", "multiset:2,3,", "torus:3,,2",
        "leck:,1", "leck:+,1", "leck:2++2,1", "leck:2+2,", "cl:-1,3,3", "cl:3,-2,2",
    ):
        rc, out, err = run(capsys, "check-poset", "--poset", poset, "--order", "lex")
        assert rc == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1, poset


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_keeps_the_exit_code():
    for argv, code in (
        (["check-poset", "--poset", "multiset:3,4", "--order", "lex", "--json"], 0),
        (["check-poset", "--poset", "multiset:4,3", "--order", "lex"], 1),
    ):
        err = io.StringIO()
        with mock.patch.object(sys, "stdout", _ClosedPipe()), contextlib.redirect_stderr(err):
            assert main(argv) == code, argv
            assert sys.stdout.name == os.devnull
            sys.stdout.close()
        assert err.getvalue() == "", argv


def test_closed_stdout_pipe_in_a_process():
    # `... --json | head -1`, with the reader gone before the first write
    src = os.path.dirname(os.path.dirname(M.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "macaulay.cli", "check-poset", "--poset", "multiset:3,4",
             "--order", "lex", "--json"],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write)
    assert proc.returncode == 0 and proc.stderr == b""


def test_malformed_order_argument_is_usage_error(tmp_path, capsys):
    orders = ["dom:1,x"]
    texts = (
        "{bad", "[1, 2]", '{"a": 1}', '{"kind": "explicit"}',
        '{"kind": "explicit", "positions": 5}',
        '{"kind": "dom", "perm": 5}',
        '{"kind": "block", "cuts": 1, "starts": 2, "blocks": 3}',
        '{"kind": "degree-major", "per_rank": [1]}',
        '{"kind": "hc", "choices": [[[7, 8], [1, 2]]]}',
        '{"kind": "hc", "choices": [[[1, 1], [2, 1]]]}',
        '{"kind": "bc", "choices": [[[1], [2]]]}',
    )
    for i, text in enumerate(texts):
        bad = tmp_path / f"recipe{i}.json"
        bad.write_text(text)
        orders += [f"{prefix}:{bad}" for prefix in ("recipe", "block", "explicit")]
    for order in orders:
        rc, out, err = run(capsys, "check-poset", "--poset", "multiset:2,2", "--order", order)
        assert rc == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1, order


def test_ring_or_ideal_file_without_generators_is_usage_error(tmp_path, capsys):
    spec = tmp_path / "ring.json"
    spec.write_text(json.dumps({"d": 2, "field": "q", "D": 2}))
    ideal = tmp_path / "ideal.json"
    ideal.write_text(json.dumps({"gens": []}))
    for argv in (
        ["check-ring", "--spec", str(spec), "--order", "lex"],
        ["ring", "hilbert", "--spec", "cl:3,3", "--ideal", str(ideal)],
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == ""
        assert err.startswith("error:") and "generators" in err and err.count("\n") == 1, argv


def test_os_errors_are_usage_errors(tmp_path, capsys):
    # a directory where a file is read, and a file where a directory is made
    plain = tmp_path / "plain.txt"
    plain.write_text("x")
    for argv in (
        ["ring", "build", "--spec", str(tmp_path)],
        ["check-ring", "--spec", "cl:2,2", "--order", f"recipe:{tmp_path}"],
        ["check-poset", "--poset", str(tmp_path), "--order", "lex"],
        ["export", "--poset", "multiset:2,2", "--out", str(plain / "x")],
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == "", argv
        assert err.startswith("error:") and err.count("\n") == 1, argv


def test_non_utf8_input_files_are_usage_errors(tmp_path, capsys):
    # a file starting with the bytes FF FE once escaped as a UnicodeDecodeError traceback
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    for argv in (
        ["check-poset", "--poset", str(bad), "--order", "lex"],
        ["check-ring", "--spec", str(bad), "--order", "lex"],
        ["check-ring", "--spec", "cl:2,2", "--order", f"recipe:{bad}"],
        ["ring", "hilbert", "--spec", "cl:2,2", "--ideal", str(bad)],
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == "", argv
        assert err.startswith("error:") and f"{str(bad)!r} is not UTF-8" in err, argv
        assert err.count("\n") == 1, argv


def test_ring_hilbert_and_ims_need_an_ideal(capsys):
    for sub in ("hilbert", "ims"):
        rc, out, err = run(capsys, "ring", sub, "--spec", "cl:3,3")
        assert (rc, out, err) == (2, "", f"error: ring {sub} needs --ideal <file>\n")


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
# per kind, the fields it reads, each with values that fit multiset:2,2
_LEX = {"kind": "lex"}
_RECIPE_KINDS = {
    "lex": {}, "colex": {}, "rep-lex": {}, "degree-rep-lex": {}, "nonsense": {},
    "dom": {"perm": [[1, 2], [2, 1]]},
    "hc": {"choices": [[[[1, 2], [2, 1]]], []]},
    "bc": {"choices": [[[[1, 2], [2, 1]]], []]},
    "block": {"cuts": [[[1], [1, 2]], [[1, 2], [1, 2]]], "starts": [_LEX], "blocks": [_LEX]},
    "explicit": {"positions": [[0, 1, 2, 3], [3, 1, 0, 2]]},
    "dual": {"of": [_LEX]},
    "degree-major": {"per_rank": [{"1": _LEX}], "default": [_LEX]},
    "family-default": {
        "family": ["colored", "be", "torus", "diamond"], "params": [[1, 1], [0, 1, 2]],
        "side": ["poset", "ring"],
    },
    "tensor-degree-lex": {"sizes": [[1, 1], [2]]},
}


@st.composite
def _recipes(draw, depth=0):
    """A recipe object of some kind whose fields, each present or not, hold a
    fitting value, random JSON, or, one level down, another recipe."""
    kind = draw(st.sampled_from(sorted(_RECIPE_KINDS)))
    recipe = {"kind": kind}
    for f, fits in _RECIPE_KINDS[kind].items():
        if draw(st.booleans()):
            inner = [] if depth else [_recipes(depth=1)]
            recipe[f] = draw(st.one_of(st.sampled_from(fits), _JSON, *inner))
    return recipe


@settings(max_examples=80, deadline=None)
@given(_recipes())
def test_generated_order_recipes_never_escape_the_cli(recipe):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "recipe.json")
        with open(path, "w") as fh:
            json.dump(recipe, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["check-poset", "--poset", "multiset:2,2", "--order", f"recipe:{path}"])
    assert rc in (0, 1, 2, 3, 4), recipe
    if rc == 2:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1, recipe


_BUILTIN_KINDS = (
    "multiset", "chain", "star", "spider", "be", "colored", "kk", "cl", "colored-ring",
    "be-ring", "torus", "diamond", "leck",
)


@st.composite
def _descriptors(draw):
    """A builtin kind and up to three fields, each an int 0..3, empty, a letter,
    or one of these after a minus sign, joined by ',' or '+'."""
    field = st.tuples(st.sampled_from(["", "-"]), st.sampled_from(["0", "1", "2", "3", "", "x"]))
    fields = ["".join(f) for f in draw(st.lists(field, max_size=3))]
    seps = draw(st.lists(st.sampled_from([",", "+"]), min_size=len(fields), max_size=len(fields)))
    rest = "".join(sep + f for sep, f in zip(seps, fields))[1:]
    return draw(st.sampled_from(["", "builtin:"])) + draw(st.sampled_from(_BUILTIN_KINDS)) + ":" + rest


@settings(max_examples=100, deadline=None)
@given(_descriptors(), st.sampled_from(["lex", "family-default"]))
def test_generated_descriptors_never_escape_the_cli(descriptor, order):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["check-poset", "--poset", descriptor, "--order", order])
    assert rc in (0, 1, 2, 3, 4), descriptor
    if rc == 2:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1, descriptor


_GOOD_COEFS = ("1", "-1", "2", "1/2", "-3/5", 3)
_BAD_COEFS = ("0", "x", "1/0", None, [1])
_GOOD_FIELDS = ("q", "p:5", "p:32003")
_BAD_FIELDS = ("p:4", "p:", "p:-5", "z", 7, None)


@st.composite
def _ring_files(draw):
    """A ring spec object on d <= 4 variables with D <= 4 whose generators have
    random supports, so that a ring has one component or several.  About one
    piece in ten is malformed: the whole object, a missing key, a value of the
    wrong type, a negative exponent, an exponent list of the wrong length, a
    bad coefficient or a bad field."""
    def bad():
        return draw(st.sampled_from([False] * 9 + [True]))

    if bad():
        return draw(_JSON)

    d = draw(st.integers(1, 4))
    gens = []
    for _ in range(draw(st.integers(0, 4))):
        mons = monomials_of_degree(d, draw(st.integers(1, 3)))
        terms = []
        for exp in draw(st.lists(st.sampled_from(mons), min_size=1, max_size=3, unique=True)):
            exp = list(exp)
            if bad():
                wrong = st.lists(st.integers(-1, 2), min_size=d - 1, max_size=d + 1)
                exp = draw(st.one_of(wrong, _JSON))
            coef = draw(st.sampled_from(_BAD_COEFS if bad() else _GOOD_COEFS))
            terms.append({"exp": exp, "coef": coef})
        gens.append(terms)
    spec = {
        "d": d,
        "field": draw(st.sampled_from(_BAD_FIELDS if bad() else _GOOD_FIELDS)),
        "generators": gens,
        "D": draw(st.integers(-1, 4) if bad() else st.integers(0, 4)),
    }
    for key in list(spec):
        if bad():
            if draw(st.booleans()):
                del spec[key]
            else:
                spec[key] = draw(_JSON)
    return spec


@settings(max_examples=150, deadline=None)
@given(_ring_files())
def test_generated_ring_files_never_escape_the_cli(spec):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ring.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["check-ring", "--spec", path, "--order", "lex", "--json"])
    assert rc in (0, 1, 2, 3, 4), spec
    if rc == 2:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1, spec


_IDEAL_RINGS = {"cl:3,3": (2, 4), "torus:3,1": (2, 3), "diamond:1": (3, 2), "colored-ring:2,1": (3, 2)}


@st.composite
def _ideal_files(draw, d, D):
    """An ideal object on d variables whose generators are homogeneous of
    degree 0..D + 1, so some exceed the truncation D.  About one piece in ten is
    malformed: the whole object, the generators list, a term, an exponent
    vector (wrong length, negative entry or not a list of ints) or a
    coefficient."""
    def bad():
        return draw(st.sampled_from([False] * 9 + [True]))

    if bad():
        return draw(_JSON)
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        mons = monomials_of_degree(d, draw(st.integers(0, D + 1)))
        terms = []
        for exp in draw(st.lists(st.sampled_from(mons), min_size=1, max_size=3, unique=True)):
            exp = list(exp)
            if bad():
                wrong = st.lists(st.integers(-1, 2), min_size=max(d - 1, 0), max_size=d + 1)
                exp = draw(st.one_of(wrong, _JSON))
            term = {"exp": exp, "coef": draw(st.sampled_from(_BAD_COEFS if bad() else _GOOD_COEFS))}
            terms.append(draw(_JSON) if bad() else term)
        gens.append(draw(_JSON) if bad() else terms)
    return {"generators": draw(_JSON) if bad() else gens}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_IDEAL_RINGS)).flatmap(
    lambda ring: st.tuples(st.just(ring), _ideal_files(*_IDEAL_RINGS[ring]))
), st.sampled_from(["hilbert", "ims"]))
def test_generated_ideal_files_never_escape_the_cli(ring_and_ideal, sub):
    ring, ideal = ring_and_ideal
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ideal.json")
        with open(path, "w") as fh:
            json.dump(ideal, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["ring", sub, "--spec", ring, "--ideal", path])
    assert rc in (0, 1, 2, 3, 4), (ring, ideal)
    if rc == 2:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1, (ring, ideal)
    if rc == 0:  # an accepted ideal has exponent vectors of the ring's length and sign
        d = _IDEAL_RINGS[ring][0]
        exps = [t["exp"] for g in ideal["generators"] for t in g]
        assert all(len(e) == d and min(e) >= 0 for e in exps), (ring, ideal)


_POSET_SOURCES = tuple(
    M.poset.poset_to_dict(M.families.builtin(name).poset)
    for name in ("multiset:2,2", "chain:3", "star:3", "spider:2,2")
)


@st.composite
def _poset_files(draw):
    """The text of a poset file: a small builtin poset as `export_json` writes
    it, where about one piece in ten is malformed (the whole object, a key
    missing or of the wrong type, n out of range, one rank, cover or label),
    and which is sometimes cut short."""
    def bad():
        return draw(st.sampled_from([False] * 9 + [True]))

    data = json.loads(json.dumps(draw(st.sampled_from(_POSET_SOURCES))))
    if bad():
        data = draw(_JSON)
    else:
        if bad():
            data["n"] = draw(st.one_of(_JSON, st.integers(-2, 10 ** 7)))
        for key in ("ranks", "covers", "labels"):
            if bad():
                if draw(st.booleans()):
                    del data[key]
                else:
                    data[key] = draw(_JSON)
            elif data[key] and bad():
                j = draw(st.integers(0, len(data[key]) - 1))
                data[key][j] = draw(st.one_of(_JSON, st.lists(st.integers(-1, 7), max_size=3)))
    text = json.dumps(data)
    if bad():
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


@settings(max_examples=150, deadline=None)
@given(_poset_files(), st.sampled_from(["lex", "colex"]))
def test_generated_poset_files_never_escape_the_cli(text, order):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "poset.json")
        with open(path, "w") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["check-poset", "--poset", path, "--order", order])
    assert rc in (0, 1, 2, 3, 4), text
    if rc == 2:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1, text
