import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import macaulay as M
from macaulay import families as F
from macaulay import poset as poset_module
from macaulay.cli import main
from macaulay.errors import EXCERPT_CHARS, excerpt
from macaulay.rings import degree_rep_lex_order, monomials_by_degree


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
        "check-poset", "--poset", "be:2,2,2", "--order", "family-default",
        "--max-subsets", "1024",
    )
    # a spider square, with no chain factor: levels of 9, 18, 15, 6, 1
    # elements, and level 2 is the smaller side of its pair with level 1
    assert rc == 3 and err == (
        "resource limit: level 2 has 15 elements; 2^15 subsets exceed the cap of 1024\n"
    )
    assert _one_short_line(err)


def test_check_poset_reads_chain_products_past_the_subset_cap(capsys):
    # multiset:7,7,7 has 28-element levels, and multiset:6,6,6,6 a 146-element
    # one; their minima come from the factors, with no subset scanned
    for argv in (["--poset", "multiset:7,7,7", "--order", "lex"],
                 ["--poset", "multiset:6,6,6,6", "--order", "lex"],
                 ["--poset", "multiset:6,6,6,6", "--order", "lex", "--direction", "upper"]):
        start = time.perf_counter()
        rc, out, err = run(capsys, "check-poset", *argv)
        assert rc == 0 and out.endswith(": Macaulay\n") and err == "", argv
        assert time.perf_counter() - start < 5, argv


def test_check_poset_enumerates_no_subsets_past_max_subsets(capsys):
    # the chain split runs under the caller's cap: on multiset:2,2 it refuses
    # the 1-element level of the cofactor, and the kernel the level it scans;
    # multiset:7,7,7 reaches only levels of one element, within a cap of 2
    rc, out, err = run(capsys, "check-poset", "--poset", "multiset:2,2", "--order", "lex",
                       "--max-subsets", "1")
    assert rc == 3 and out == "" and err == (
        "resource limit: level 0 has 1 elements; 2^1 subsets exceed the cap of 1\n"
    )
    rc, out, err = run(capsys, "check-poset", "--poset", "multiset:7,7,7", "--order", "lex",
                       "--max-subsets", "2")
    assert rc == 0 and out.endswith(": Macaulay\n") and err == ""


@pytest.mark.parametrize("desc, level, k", [("colored:25,1", 2, 26), ("colored:30,1", 2, 31)])
def test_check_poset_on_a_dual_star_times_a_chain(desc, level, k, capsys):
    # Q is one dual star with int labels; its label order passes the level
    # check, so every level takes the chain split: the family order holds, lex
    # fails "lower" without a subset scan, and "upper" needs a witness on level 1
    for direction in ("lower", "upper"):
        rc, out, err = run(capsys, "check-poset", "--poset", desc, "--order", "family-default",
                           "--direction", direction)
        assert rc == 0 and out.endswith(": Macaulay\n") and err == "", direction
    rc, out, err = run(capsys, "check-poset", "--poset", desc, "--order", "lex")
    assert rc == 1 and f"level {level}, size 1: shadow" in out and err == ""
    rc, out, err = run(capsys, "check-poset", "--poset", desc, "--order", "lex", "--direction", "upper")
    assert rc == 3 and out == "" and err == (
        f"resource limit: level 1 has {k} elements; 2^{k} subsets exceed the cap of 4194304\n"
    )


def test_check_poset_witness_past_the_cap_on_a_chain_product(tmp_path, capsys):
    # lex on multiset:6,6,6 with (3, 3, 3), whose shadow has 3 elements, moved
    # to the front of the 25-element level 9: its minima need no subset scan,
    # but the nestedness witness does, so the cap still refuses that level
    p = F.builtin("multiset:6,6,6").poset
    lex = M.lex_order(p)
    positions = list(lex.position)
    a, b = lex.level_in_order(9)[0], p.id_of((3, 3, 3))
    positions[a], positions[b] = positions[b], positions[a]
    path = tmp_path / "order.json"
    path.write_text(json.dumps({"kind": "explicit", "positions": positions}))
    rc, out, err = run(capsys, "check-poset", "--poset", "multiset:6,6,6", "--order", f"recipe:{path}")
    assert rc == 3 and out == "" and err == (
        "resource limit: level 9 has 25 elements; 2^25 subsets exceed the cap of 4194304\n"
    )


def test_check_ring_antichain_cap_names_its_cap(capsys):
    # levels of 1, 6, 13, 12, 4 classes: the default degree bound 3 puts 32 in the ground
    rc, out, err = run(
        capsys, "check-ring", "--spec", "leck:2+2,2", "--order", "lex", "--mode", "monomial-ideals"
    )
    assert rc == 3 and out == "" and err == (
        "resource limit: 32 generator candidates in degrees <= 3 exceed the antichain cap of 24\n"
    )
    assert _one_short_line(err)


def test_monomial_ideal_scan_reads_level_minima_under_the_antichain_cap(capsys):
    # the safe degrees below g read the upper minima of levels inside the
    # ground, so the caller's subset cap, for the poset side, never refuses them
    rc, out, err = run(capsys, "check-ring", "--spec", "cl:4,4,4", "--order", "lex",
                       "--mode", "monomial-ideals", "--max-subsets", "1", "--json")
    report = json.loads(out)
    assert rc == 0 and err == ""
    assert report["verdict"]["ideals_checked"] == 2498 and report["verdict"]["holds"] is True


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


def test_monomial_ideal_scan_on_kk12_reports_every_ideal(capsys):
    # the 2^12 sets of variables and {1}: the scan walks 13 ground upsets
    # instead of all 4,096 classes' upsets
    rc, out, err = run(capsys, "check-ring", "--spec", "kk:12", "--order", "lex",
                       "--mode", "monomial-ideals", "--max-gen-degree", "1", "--json")
    report = json.loads(out)
    assert rc == 0 and err == ""
    assert report["verdict"]["ideals_checked"] == 4097 and report["verdict"]["holds"] is True


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
    # without --json the refusal is one line naming the failed hypothesis
    rc, out, err = run(capsys, "check-ring", "--spec", str(path), "--order", "lex")
    want = f"{path}: correspondence hypotheses failed (level linear independence fails at degree 2)\n"
    assert (rc, out, err) == (4, want, "")


@pytest.mark.parametrize("name", ["torus:3,2", "diamond:2"])
def test_check_ring_glued_spec_file_matches_its_builtin(name, tmp_path, capsys):
    # the monomial-order witness comes from the ring, not from its name: the
    # spec file of a glued tensor ring gets the builtin's verdict
    built = F.builtin(name)
    spec_path = tmp_path / "ring.json"
    spec_path.write_text(json.dumps(built.ring_spec.to_json()))
    order_path = tmp_path / "order.json"
    order_path.write_text(json.dumps(built.order_recipe()))
    reports = []
    for spec in (name, str(spec_path)):
        rc, out, _ = run(
            capsys, "check-ring", "--spec", spec, "--order", f"recipe:{order_path}", "--json"
        )
        assert rc == 0, spec
        reports.append(json.loads(out)["verdict"])
    assert reports[0] == reports[1]
    assert reports[1]["hypotheses"]["monomial_order_verified"] is True


def test_check_ring_without_any_monomial_order(tmp_path, capsys):
    # xz = yz ties products: no order verifies, and the counterexample
    # reported is degree-rep-lex's
    spec = M.QuotientRingSpec(3, M.RATIONALS, [M.Polynomial({(1, 0, 1): 1, (0, 1, 1): -1})], 3)
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(spec.to_json()))
    rc, out, _ = run(capsys, "check-ring", "--spec", str(path), "--order", "lex", "--json")
    hyp = json.loads(out)["verdict"]["hypotheses"]
    ring = M.build_ring(spec)
    _, cex = M.is_monomial_order(ring, degree_rep_lex_order(M.poset_of_monomials(ring)))
    assert rc == 4 and hyp["reason"] == "no verified monomial order on the class poset"
    assert hyp["monomial_order_counterexample"] == [str(x) for x in cex]


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
    # a monomial order exists (degree-rep-lex verifies), but the
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


def test_export_unknown_kind_is_usage_error(tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc, out, err = run(capsys, "export", "--poset", "multiset:2,2", "--what", "poset-json,bogus,cube",
                       "--out", str(out_dir))
    assert rc == 2 and out == ""
    assert err == "error: unknown --what kinds: 'bogus', 'cube'\n"
    assert not out_dir.exists()


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

    rc, out, _ = run(capsys, "ring", "poset", "--spec", "torus:3,1", "--format", "dot")
    assert rc == 0
    assert out == M.export_dot(M.poset_of_monomials(F.builtin("torus:3,1").ring))


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


def test_ring_check_macaulay_reports_what_check_ring_reports(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import jobs

    for args in jobs._CLI_ARGS:
        runs = []
        for argv in (["check-ring"], ["ring", "check-macaulay"]):
            rc, out, err = run(capsys, *argv, *args, "--json")
            report = json.loads(out)
            del report["timing"]
            runs.append((rc, err, report))
        assert runs[0] == runs[1], args


@pytest.mark.parametrize("option", [
    "--mode=both", "--max-gen-degree=1", "--allow-non-lli", "--json", "--out=report",
    "--max-subsets=9", "--order=zigzag", "--ideal=/nonexistent", "--format=dot",
])
def test_ring_commands_refuse_the_check_options(option, capsys):
    # only check-ring reads the first six, only ims --order, only hilbert and ims
    # --ideal and only poset --format; the ring group once accepted and ignored them all
    readers = {"--order": ("ims",), "--ideal": ("hilbert", "ims"), "--format": ("poset",)}
    for sub in ("build", "poset", "lli", "recognize-tree", "hilbert", "ims"):
        if sub in readers.get(option.split("=")[0], ()):
            continue
        argv = ["ring", sub, "--spec", "cl:2,2", option] + ["--ideal=x"] * (sub in readers["--ideal"])
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == "", sub
        assert err.startswith("error: unrecognized arguments:") and err.count("\n") == 1, sub
    # the group's options no longer come before the command
    rc, out, err = run(capsys, "ring", "--spec", "cl:2,2", "build")
    assert rc == 2 and out == "" and err.startswith("error:") and err.count("\n") == 1


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


def test_zero_terms_with_misfit_exponents_exit_2_on_spec_and_ideal(tmp_path, capsys):
    # a zero term is dropped when the polynomial is built, so its exponents
    # are checked while the file is read
    good = {"exp": [2, 0], "coef": "1"}
    for exp in ([5, -1, 7], [1], [-1, 3]):
        zero = {"exp": exp, "coef": "0"}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"d": 2, "D": 3, "field": "q", "generators": [[good, zero]]}))
        ideal = tmp_path / "ideal.json"
        ideal.write_text(json.dumps({"generators": [[good, zero]]}))
        want = f"error: exponents {exp!r} need 2 nonnegative entries\n"
        assert run(capsys, "ring", "build", "--spec", str(spec)) == (2, "", want)
        for sub in ("hilbert", "ims"):
            argv = ("ring", sub, "--spec", "cl:3,3", "--ideal", str(ideal))
            assert run(capsys, *argv) == (2, "", want), sub
    spec.write_text(json.dumps({"d": 2, "D": 3, "field": "q", "generators": [[good]]}))
    assert run(capsys, "ring", "build", "--spec", str(spec))[0] == 0


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


def test_oversized_ring_builtins_exit_3_before_listing_generators(capsys):
    # generator terms times variables, counted from the parameters: colored-ring:1000
    # once ended in a MemoryError, be-ring:2,1000,1 ran past 120 s, kk:5000 took 20 s,
    # and kk:10^30 and be-ring:2,2,10^30 ended in an OverflowError listing their factors
    for desc, entries in (
        ("colored-ring:126", 1008126), ("colored-ring:1000", 500500000),
        ("be-ring:2,126,1", 1008126), ("be-ring:2,1000,1", 500500000),
        ("be-ring:2,2,100000000", 60000000000000000), ("kk:5000", 25000000),
        (f"kk:{10 ** 30}", 10 ** 60), (f"be-ring:2,2,{10 ** 30}", 6 * 10 ** 60),
        ("cl:" + ",".join(["3"] * 1001), 1002001), ("leck:3000", 9003000),
        ("leck:2,1000", 1005006), ("torus:2,400", 1600000), ("diamond:300", 2700000),
    ):
        t0 = time.perf_counter()
        rc, out, err = run(capsys, "check-ring", "--spec", desc, "--order", "lex")
        assert time.perf_counter() - t0 < 0.5, desc[:20]
        assert rc == 3 and out == "", desc[:20]
        assert err == (f"resource limit: the generators would have {entries} exponent "
                       "entries (limit 1000000)\n"), desc[:20]


def test_square_free_grid_over_the_fold_count_exits_3_before_listing_generators(capsys):
    # kk:1000 passes the generator count at its limit; it took 0.5 s to list them
    t0 = time.perf_counter()
    rc, out, err = run(capsys, "check-ring", "--spec", "kk:1000", "--order", "lex", "--json")
    assert time.perf_counter() - t0 < 0.05
    assert rc == 3 and out == ""
    assert err == (f"resource limit: the ring would have {2 ** 1000} products of factor "
                   "classes of degree <= 1000 (limit 1000000)\n")


def test_negative_leck_grid_is_usage_error(capsys):
    # it was read as no grid factor: leck:2,0
    rc, out, err = run(capsys, "ring", "build", "--spec", "leck:2,-1")
    assert rc == 2 and out == ""
    assert err == "error: a Leck ring's square-free grid needs a nonnegative size, got -1\n"


def test_check_ring_sorts_no_level_by_label(capsys):
    # every class poset numbers its levels in label order; kk:12 once made 53,248 label-key calls
    with mock.patch.object(poset_module, "_label_key", side_effect=poset_module._label_key) as key:
        rc, _, err = run(capsys, "check-ring", "--spec", "kk:12", "--order", "lex")
    assert rc == 3 and "level 2 has 66 elements" in err
    assert key.call_count == 0


def test_huge_poset_descriptors_exit_3(capsys):
    # their totals run past the 4,300 digits str() prints, and be: once listed
    # all n factors before counting them
    for desc in ("be:1,2,99999", "colored:" + ",".join(["9"] * 5000),
                 "multiset:" + ",".join(["2"] * 20000)):
        t0 = time.perf_counter()
        rc, out, err = run(capsys, "check-poset", "--poset", desc, "--order", "lex")
        assert time.perf_counter() - t0 < 0.5, desc[:20]
        assert rc == 3 and out == "" and err.count("\n") == 1, desc[:20]
        assert "more than 1000000 elements (limit 1000000)" in err
    rc, _, err = run(capsys, "check-poset", "--poset", "multiset:1001,1001,1001", "--order", "lex")
    assert rc == 3 and err.endswith("poset would have 1003003001 elements (limit 1000000)\n")


def test_huge_ring_spec_exits_3(tmp_path, capsys):
    # comb(16000, 8000) monomials: about 4,800 digits, more than str() prints
    d = 8000
    spec = tmp_path / "ring.json"
    spec.write_text(json.dumps({"d": d, "field": "p:32003", "D": d,
                                "generators": [[{"exp": [1] * d, "coef": "1"}]]}))
    rc, out, err = run(capsys, "check-ring", "--spec", str(spec), "--order", "lex")
    assert rc == 3 and out == "" and err.count("\n") == 1
    assert err.endswith(f"a component of {d} variables has more than 1000000 monomials "
                        f"of degree <= {d} (limit 1000000)\n")


def test_huge_free_ring_specs_exit_3_at_once(tmp_path, capsys):
    # d free variables at D = d: the fold count once ran to the end after
    # lifting every component (8.5 s at d = 300); it now stops at its third factor
    # two variables at D = 30,000 spent 37 s listing the first variable's monomials,
    # and at D = 999,999 15.5 s and 762 MiB eliminating one of them: a free
    # variable's classes are counted without eliminating it
    for d, D, seconds in ((300, 300, 0.5), (600, 600, 0.5), (2, 30000, 2), (2, 999999, 2)):
        spec = tmp_path / f"free{d}.json"
        spec.write_text(json.dumps({"d": d, "field": "p:32003", "D": D, "generators": []}))
        t0 = time.perf_counter()
        with mock.patch.object(M.rings, "_eliminate", side_effect=M.rings._eliminate) as elim:
            rc, out, err = run(capsys, "check-ring", "--spec", str(spec), "--order", "lex")
        assert time.perf_counter() - t0 < seconds, d
        assert not elim.called, d
        assert rc == 3 and out == "", d
        assert err == ("resource limit: the ring would have more than 1000000 products of "
                       f"factor classes of degree <= {D} (limit 1000000)\n")


@pytest.mark.parametrize("argv", [
    ["check-poset", "--poset", "multiset:\u0663,\u0663", "--order", "lex"],  # Arabic-Indic 3
    ["check-poset", "--poset", "chain:\u0665", "--order", "lex"],  # Arabic-Indic 5
    ["check-poset", "--poset", "multiset:1_0,2", "--order", "lex"],
    ["check-poset", "--poset", "multiset: 3,+4", "--order", "lex"],
    ["check-poset", "--poset", "multiset:3,3", "--order", "dom:\u0662,1"],
    ["check-poset", "--poset", "multiset:3,3", "--order", "dom: 2,1"],
    ["check-poset", "--poset", "multiset:3,3", "--order", "lex", "--max-subsets", "1_000"],
    ["check-ring", "--spec", "cl:3,3", "--order", "lex", "--max-gen-degree", "+2"],
])
def test_integers_are_ascii_digits(argv, capsys):
    # int() also reads other scripts' digits, underscores, spaces and a plus sign
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == "" and err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("kind", ["degree-rep-lex", "rep-lex", "lex", "colex", "hc", "degree-major"])
def test_a_bare_kind_reports_what_its_recipe_file_reports(kind, tmp_path, capsys):
    # any kind is a bare word; degree-rep-lex was once refused as an unknown recipe
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps({"kind": kind}))
    runs = []
    for order in (kind, f"recipe:{path}"):
        rc, out, err = run(capsys, "check-ring", "--spec", "torus:3,2", "--order", order, "--json")
        report = json.loads(out)
        del report["timing"]
        runs.append((rc, err, report))
    assert runs[0] == runs[1] and runs[0][1] == ""
    assert runs[0][2]["inputs"]["order"]["kind"] == kind


def test_dom_by_block_recipe_file(tmp_path, capsys):
    # the Bezrukov–Elsässer block rule is plain JSON, so a recipe file carries it
    p = M.multiset_lattice([3, 3])
    recipe = {"kind": "block", "cuts": [[1, 2], [1, 3]], "starts": {"kind": "bc"},
              "blocks": "dom-by-block"}
    path = tmp_path / "block.json"
    path.write_text(json.dumps(recipe))
    rc, out, err = run(capsys, "check-poset", "--poset", "multiset:3,3", "--order",
                       f"recipe:{path}", "--json")
    verdict = M.is_macaulay(p, M.order_from_recipe(p, recipe))
    report = json.loads(out)
    assert rc == (0 if verdict.holds else 1) and err == ""
    assert report["inputs"]["order"] == recipe
    assert report["verdict"] == json.loads(json.dumps(verdict.to_dict(p), default=str))
    path.write_text(json.dumps({**recipe, "blocks": "dom-by-leg"}))
    rc, out, err = run(capsys, "check-poset", "--poset", "multiset:3,3", "--order", f"recipe:{path}")
    assert rc == 2 and out == ""
    assert err == "error: block order recipe has a malformed blocks: 'dom-by-leg'\n"


def test_vector_orders_on_int_labelled_builtins_exit_2_before_building(tmp_path, capsys):
    # star, spider and be:k,l,1 label their elements 0..n-1, so no vector recipe fits them
    block = tmp_path / "block.json"
    block.write_text(json.dumps({"kind": "block", "cuts": [[1]], "starts": {}, "blocks": {}}))
    recipes = {"lex": {"kind": "lex"}, "colex": {"kind": "colex"}, "hc": {"kind": "hc"},
               "bc": {"kind": "bc"}, "dom:1": {"kind": "dom", "perm": [1]},
               f"block:{block}": json.loads(block.read_text())}
    for order, recipe in recipes.items():
        with pytest.raises(M.OrderError) as built:
            M.order_from_recipe(M.families.spider(2, 2), recipe)
        for desc in ("star:999999", "spider:999,999", "be:999,999,1"):
            t0 = time.perf_counter()
            rc, out, err = run(capsys, "check-poset", "--poset", desc, "--order", order)
            assert time.perf_counter() - t0 < 0.5, (desc, order)
            assert rc == 2 and out == "" and err == f"error: {built.value}\n", (desc, order)
    rc, _, _ = run(capsys, "check-poset", "--poset", "spider:2,2", "--order", "family-default")
    assert rc == 0


def test_wrapped_vector_orders_on_int_labelled_builtins_exit_2_before_building(tmp_path, capsys):
    # a dual or degree-major order ranks vectors as well, however it is wrapped
    recipes = {
        "dual": {"kind": "dual", "of": {"kind": "lex"}},
        "degree-major": {"kind": "degree-major", "per_rank": None, "default": {"kind": "lex"}},
        "dual-degree-major": {"kind": "dual", "of": {"kind": "degree-major", "per_rank": {"1": {"kind": "lex"}}}},
    }
    errors = set()
    for name, recipe in recipes.items():
        with pytest.raises(M.OrderError) as built:
            M.order_from_recipe(M.families.spider(2, 2), recipe)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(recipe))
        t0 = time.perf_counter()
        rc, out, err = run(capsys, "check-poset", "--poset", "spider:999,999", "--order", f"recipe:{path}")
        assert time.perf_counter() - t0 < 0.5, name
        assert rc == 2 and out == "" and err == f"error: {built.value}\n", name
        errors.add(err)
    assert len(errors) == 1
    # the dual of an order that ranks no vectors still resolves
    n = M.families.spider(2, 2).n
    path = tmp_path / "dual-explicit.json"
    path.write_text(json.dumps({"kind": "dual", "of": {"kind": "explicit", "positions": list(range(n))}}))
    rc, _, err = run(capsys, "check-poset", "--poset", "spider:2,2", "--order", f"recipe:{path}")
    assert rc in (0, 1) and err == ""


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


@pytest.mark.parametrize("field", ["p:\u00b2", "p:\u0663", "p:3\u00b2", "p:\uff17"])
def test_non_ascii_digit_modulus_is_usage_error(field, tmp_path, capsys):
    # str.isdigit accepts superscripts and other scripts' digits; int() takes some of them
    spec = tmp_path / "ring.json"
    spec.write_text(json.dumps({"d": 2, "field": field, "generators": [], "D": 2}))
    for argv in (["--spec", "torus:3,1", "--field", field], ["--spec", str(spec)]):
        rc, out, err = run(capsys, "check-ring", *argv, "--order", "lex")
        assert rc == 2 and out == ""
        assert err == f"error: unknown field spec {field!r}\n"


def test_overlong_modulus_is_usage_error(tmp_path, capsys):
    # int() refuses strings of more than 4,300 digits with a ValueError
    field = "p:" + "7" * 5000
    spec = tmp_path / "ring.json"
    spec.write_text(json.dumps({"d": 2, "field": field, "generators": [], "D": 2}))
    for argv in (["--spec", "torus:3,1", "--field", field], ["--spec", str(spec)]):
        rc, out, err = run(capsys, "check-ring", *argv, "--order", "lex")
        assert rc == 2 and out == ""
        assert err == "error: prime field needs a prime modulus below 3317044064679887385961981, " \
                      "got 5000 digits\n"


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


def test_unknown_family_recipes_and_descriptor_shapes_are_usage_errors(tmp_path, capsys):
    family = {"kind": "family-default", "family": "colored", "params": [1], "side": "x"}
    recipes = {"foo.json": ({**family, "family": "foo", "params": []}, "unknown family recipe 'foo'"),
               "side.json": (family, "unknown side 'x'")}
    cases = []
    for name, (recipe, message) in recipes.items():
        (tmp_path / name).write_text(json.dumps(recipe))
        cases.append((["check-poset", "--poset", "chain:2", f"recipe:{tmp_path / name}"], message))
    cases += [
        (["check-poset", "--poset", "star:0", "lex"], "star needs at least one leg"),
        (["check-poset", "--poset", "torus:1,2,3", "lex"],
         "torus: expected 1 or 2 integers, got '1,2,3'"),
        (["check-ring", "--spec", "torus:1", "lex"], "torus parameter must be at least 2"),
    ]
    for (*argv, order), message in cases:
        rc, out, err = run(capsys, *argv, "--order", order)
        assert (rc, out, err) == (2, "", f"error: {message}\n"), argv


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
    # a recipe's kind and the shapes of its fields, nested recipes included, are
    # checked before the build; an unknown kind in a file, or one nested in a dual,
    # was once refused only after it (2.1 s and 2.6 s on spider:999,400)
    early = (
        "{bad", "[1, 2]", '{"a": 1}', '{"kind": "explicit"}', '{"kind": "foo"}',
        '{"kind": "explicit", "positions": 5}',
        '{"kind": "dom", "perm": 5}',
        '{"kind": "block", "cuts": 1, "starts": 2, "blocks": 3}',
        '{"kind": "degree-major", "per_rank": [1]}',
        '{"kind": "family-default", "params": [1, 1]}',
        '{"kind": "dual", "of": {"kind": "foo"}}',
        '{"kind": "dual", "of": {"kind": "dual", "of": {"kind": "dom"}}}',
        '{"kind": "block", "cuts": [[1], [1]], "starts": {"kind": "rep-lex"}, "blocks": "x"}',
        '{"kind": "block", "cuts": [[1], [1]], "starts": {"kind": "lex"}, "blocks": {"kind": "x"}}',
        '{"kind": "degree-major", "per_rank": {"1": {"kind": "explicit", "positions": [0]}}}',
        '{"kind": "degree-major", "default": {"kind": "dom", "perm": "x"}}',
    )
    late = (
        '{"kind": "hc", "choices": [[[7, 8], [1, 2]]]}',
        '{"kind": "hc", "choices": [[[1, 1], [2, 1]]]}',
        '{"kind": "bc", "choices": [[[1], [2]]]}',
        # int() read "1_0" as rank 10 and took " 1"; "01" dropped the recipe of "1"
        '{"kind": "degree-major", "per_rank": {"1_0": {"kind": "lex"}}}',
        '{"kind": "degree-major", "per_rank": {" 1": {"kind": "lex"}}}',
        '{"kind": "degree-major", "per_rank": {"1": {"kind": "lex"}, "01": {"kind": "colex"}}}',
    )
    for texts, built in ((early, False), (late, True)):
        orders = ["dom:1,x", "foo", "explicit", "dual"] if not built else []
        for i, text in enumerate(texts):
            bad = tmp_path / f"recipe{built}{i}.json"
            bad.write_text(text)
            orders += [f"{prefix}:{bad}" for prefix in ("recipe", "block", "explicit")]
        for order in orders:
            with mock.patch.object(M.families, "builtin", side_effect=M.families.builtin) as builtin:
                rc, out, err = run(capsys, "check-poset", "--poset", "multiset:2,2", "--order", order)
            assert rc == 2 and out == ""
            assert err.startswith("error:") and err.count("\n") == 1, order
            assert builtin.called == built, order
    rc, _, err = run(capsys, "check-poset", "--poset", "multiset:2,2", "--order", "foo")
    assert err == "error: unknown order recipe kind 'foo'\n"
    # a listed kind where a vector recipe belongs was called "unknown vector order recipe"
    bad = tmp_path / "rep-lex.json"
    bad.write_text('{"kind": "degree-major", "per_rank": {"1": {"kind": "rep-lex"}}}')
    rc, _, err = run(capsys, "check-poset", "--poset", "multiset:2,2", "--order", f"recipe:{bad}")
    assert (rc, err) == (2, "error: order recipe kind 'rep-lex' does not rank exponent vectors\n")
    # the nested repro: refused before spider:999,400 is built (builtin is never entered)
    bad.write_text('{"kind": "dual", "of": {"kind": "foo"}}')
    with mock.patch.object(M.families, "builtin", side_effect=AssertionError) as builtin:
        rc, out, err = run(capsys, "check-poset", "--poset", "spider:999,400",
                           "--order", f"recipe:{bad}")
    assert (rc, out, err) == (2, "", "error: unknown order recipe kind 'foo'\n")
    assert not builtin.called


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
        assert (rc, out, err) == (2, "", "error: the following arguments are required: --ideal\n")


def _one_short_line(err):
    """A refusal: one line that starts with "error:" (exit 2) or "resource
    limit:" (exit 3), under 1,000 bytes."""
    return (err.startswith(("error:", "resource limit:")) and err.count("\n") == 1
            and len(err.encode()) < 1000)


@pytest.mark.parametrize("recipe", [
    {"kind": "explicit", "positions": ["x"] * 200_000},
    {"kind": "dom", "perm": ["x"] * 200_000},
    {"kind": "k" * 200_000},
])
def test_refusals_echo_a_bounded_excerpt_of_their_input(capsys, tmp_path, recipe):
    # each once echoed its whole field: 1,000,057, 1,000,047 and 200,036 bytes of stderr
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(recipe))
    rc, out, err = run(capsys, "check-poset", "--poset", "multiset:2,2", "--order", f"recipe:{path}")
    assert rc == 2 and out == "" and _one_short_line(err), err[:200]


def test_excerpt_keeps_short_values_and_both_ends_of_long_ones():
    at_limit = "x" * (EXCERPT_CHARS - 2)  # its repr has exactly EXCERPT_CHARS characters
    assert excerpt(at_limit) == repr(at_limit)
    cut = excerpt(list(range(100_000)))
    assert len(cut) <= EXCERPT_CHARS and "..." in cut
    assert cut.startswith("[0, 1, 2, ") and cut.endswith(", 99998, 99999]")


def test_no_refusal_formats_a_value_with_repr():
    # `!r` echoes a value whole, however long; a refusal echoes `errors.excerpt` of it
    found = [(path.name, node.lineno)
             for path in sorted(Path(poset_module.__file__).parent.glob("*.py"))
             for raise_ in ast.walk(ast.parse(path.read_text())) if isinstance(raise_, ast.Raise)
             for node in ast.walk(raise_)
             if isinstance(node, ast.FormattedValue) and node.conversion == ord("r")]
    assert found == []


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
    "block": {"cuts": [[[1], [1, 2]], [[1, 2], [1, 2]]], "starts": [_LEX],
              "blocks": [_LEX, "dom-by-block", "dom-by-leg"]},
    "explicit": {"positions": [[0, 1, 2, 3], [3, 1, 0, 2]]},
    "dual": {"of": [_LEX]},
    "degree-major": {"per_rank": [{"1": _LEX}], "default": [_LEX]},
    "family-default": {
        "family": ["colored", "be", "be-ring", "torus", "diamond"],
        "params": [[1, 1], [0, 1, 2], [2], [0, 3, 1], [1]], "side": ["poset", "ring"],
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
@given(_recipes(), st.sampled_from(["multiset:2,2", "star:3"]))
# on int labels these once sliced or sorted an int and ended in a TypeError
@example({"kind": "tensor-degree-lex", "sizes": [1]}, "star:3")
@example({"kind": "family-default", "family": "torus", "params": [2]}, "star:3")
@example({"kind": "family-default", "family": "be-ring", "params": [0, 3, 1]}, "star:3")
@example({"kind": "family-default", "family": "colored", "params": [1, 1]}, "star:3")
@example({"kind": "family-default", "family": "diamond", "params": [1]}, "star:4")
def test_generated_order_recipes_never_escape_the_cli(recipe, poset):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "recipe.json")
        with open(path, "w") as fh:
            json.dump(recipe, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["check-poset", "--poset", poset, "--order", f"recipe:{path}"])
    assert rc in (0, 1, 2, 3, 4), (recipe, poset)
    if rc in (2, 3):
        assert _one_short_line(err.getvalue()), (recipe, poset)


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
    if rc in (2, 3):
        assert _one_short_line(err.getvalue()), descriptor


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
        mons = monomials_by_degree(d, 3)[draw(st.integers(1, 3))]
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
    if rc in (2, 3):
        assert _one_short_line(err.getvalue()), spec


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
        mons = monomials_by_degree(d, D + 1)[draw(st.integers(0, D + 1))]
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
# a zero term is dropped before the ideal sees it, so its exponents once went unchecked
@example(("cl:3,3", {"generators": [[{"exp": [0], "coef": "0"}]]}), "hilbert")
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
    if rc in (2, 3):
        assert _one_short_line(err.getvalue()), (ring, ideal)
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
        labels = data.get("labels")
        if isinstance(labels, list) and labels and bad():
            labels[-1] = "deep"  # a label nested 600 lists deep, spliced into the text
    text = json.dumps(data).replace('"deep"', "[" * 600 + "0" + "]" * 600)
    if bad():
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


@settings(max_examples=150, deadline=None)
@given(_poset_files(), st.sampled_from(["lex", "colex", "rep-lex", "tensor"]))
# rep-lex sorted labels of kinds that do not compare, and ended in a TypeError
@example('{"n": 2, "ranks": [0, 0], "covers": [], "labels": [0, [1]]}', "rep-lex")
@example('{"n": 2, "ranks": [0, 0], "covers": [], "labels": ["a", 1]}', "rep-lex")
@example('{"n": 2, "ranks": [0, 0], "covers": [], "labels": [null, 1]}', "rep-lex")
@example('{"n": 2, "ranks": [0, 0], "covers": [], "labels": [[0, "a"], [1, 0]]}', "tensor")
def test_generated_poset_files_never_escape_the_cli(text, order):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "poset.json")
        with open(path, "w") as fh:
            fh.write(text)
        if order == "tensor":  # sums the parts it cuts a label into: refused where either fails
            order = "recipe:" + os.path.join(tmp, "recipe.json")
            with open(order[len("recipe:"):], "w") as fh:
                json.dump({"kind": "tensor-degree-lex", "sizes": [1, 1]}, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["check-poset", "--poset", path, "--order", order])
    assert rc in (0, 1, 2, 3, 4), text
    if rc in (2, 3):
        assert _one_short_line(err.getvalue()), text


def _nested(open_, core, close, depth):
    return open_ * depth + core + close * depth


_DEEP_LABEL = '{"n": 2, "ranks": [0, 1], "covers": [[0, 1]], "labels": [%s, [1]]}' % (
    _nested("[", "0", "]", 600))


@pytest.mark.parametrize("argv, text", [
    # the JSON decoder gives up near 1,000 levels, and its RecursionError was not caught
    (["check-poset", "--poset", "multiset:2,2", "--order", "recipe:{file}"],
     _nested('{"kind": "dual", "of": ', '{"kind": "lex"}', "}", 3000)),
    (["check-ring", "--spec", "{file}", "--order", "lex"],
     '{"d": 2, "D": 2, "field": "q", "generators": [[{"exp": %s, "coef": "1"}]]}'
     % _nested("[", "0", "]", 990)),
    # labels this deep decode, but overflowed the label walks
    (["check-poset", "--poset", "{file}", "--order", "rep-lex"], _DEEP_LABEL),
    (["export", "--poset", "{file}", "--what", "poset-json", "--out", "{out}"], _DEEP_LABEL),
], ids=["order-file", "ring-spec", "poset-rep-lex", "poset-export"])
def test_deeply_nested_input_files_are_usage_errors(argv, text, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(text)
    rc, out, err = run(capsys, *(a.format(file=path, out=tmp_path / "out") for a in argv))
    assert rc == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_check_poset_reports_a_continuity_failure(capsys):
    rc, out, _ = run(capsys, "check-poset", "--poset", "colored:2,2", "--order", "lex")
    assert rc == 1
    assert out.splitlines()[1] == (
        "  level 2, size 1: shadow {(0, 2), (2, 0)} of the segment {(0, 0)} is not the initial"
        " segment {(0, 2), (1, 2)}"
    )
