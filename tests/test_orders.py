import itertools
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

import macaulay as M
from macaulay.errors import OrderError
from macaulay.families import order_from_recipe
from macaulay.orders import RECIPE, RECIPE_FIELDS, VECTOR, rank_vectors

from conftest import comparator_rank_vectors


def test_lex_on_m34_fills_columns(m34):
    lex = M.lex_order(m34)
    assert lex.labels_in_order()[:5] == ((0, 0), (0, 1), (0, 2), (0, 3), (1, 0))


def test_lex_level_restriction(m34):
    lex = M.lex_order(m34)
    assert [m34.labels[x] for x in lex.level_in_order(1)] == [(0, 1), (1, 0)]


def test_lex_singleton():
    s = M.chain(1)
    assert M.lex_order(s).position == (0,)


LEX, COLEX, HC, BC = ({"kind": k} for k in ("lex", "colex", "hc", "bc"))


def dom(*perm):
    return {"kind": "dom", "perm": list(perm)}


def block_recipe(cuts, starts, blocks=None):
    return {"kind": "block", "cuts": [list(c) for c in cuts], "starts": starts,
            "blocks": blocks or LEX}


def test_colex_on_m333():
    p = M.multiset_lattice([3, 3, 3])
    colex = order_from_recipe(p, COLEX)
    assert colex.labels_in_order()[:4] == ((0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0))


def test_colex_level_restriction(m34):
    colex = order_from_recipe(m34, COLEX)
    assert [m34.labels[x] for x in colex.level_in_order(1)] == [(1, 0), (0, 1)]


def test_colex_equals_lex_in_dimension_one():
    c = M.chain(5)
    assert order_from_recipe(c, COLEX) == M.lex_order(c)


def test_domination_identity_is_lex(m34):
    assert order_from_recipe(m34, dom(1, 2)).position == M.lex_order(m34).position


def test_domination_reversal_is_colex(m34):
    assert order_from_recipe(m34, dom(2, 1)).position == order_from_recipe(m34, COLEX).position


def test_domination_m22():
    p = M.multiset_lattice([2, 2])
    table = order_from_recipe(p, dom(2, 1))
    assert table.labels_in_order() == ((0, 0), (1, 0), (0, 1), (1, 1))


def test_domination_invalid_perm(m34):
    with pytest.raises(OrderError):
        order_from_recipe(m34, dom(1, 3))


def test_non_vector_labels_rejected():
    p = M.RankedPoset(2, [(0, 1)], [0, 1], labels=["a", "b"])
    with pytest.raises(OrderError):
        M.lex_order(p)


def test_hc_internals_scd_and_complement():
    from macaulay.orders import _icscd, _scd

    # position vector (1,2): toset indices 2 and 3
    assert _scd((1, 2)) == 3
    assert _icscd((1, 2)) == (0, 2)
    assert _scd((0, 0)) == 1


def test_hc_first_four_is_square(m34):
    hc = order_from_recipe(m34, HC)
    assert set(hc.labels_in_order()[:4]) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_hc_scd_ordering(m34):
    # (1,1) before (2,0): single coordinate distance 2 < 3
    hc = order_from_recipe(m34, HC)
    assert hc.position[m34.id_of((1, 1))] < hc.position[m34.id_of((2, 0))]


def test_bc_first_elements(m34):
    bc = order_from_recipe(m34, BC)
    assert bc.labels_in_order()[0] == (0, 0)
    assert all(v[0] == 0 or v[1] == 0 for v in bc.labels_in_order()[:3])


def test_bc_on_chain_is_chain_order():
    c = M.chain(5)
    assert order_from_recipe(c, BC).position == M.lex_order(c).position


def test_bc_hc_complement_identity():
    for shape in [(3, 4), (2, 2, 2), (4, 4)]:
        p = M.multiset_lattice(shape)
        hc = order_from_recipe(p, HC)
        bc = order_from_recipe(p, BC)
        n = p.n
        for x in range(n):
            comp = tuple(l - 1 - v for l, v in zip(shape, p.labels[x]))
            assert bc.position[x] + hc.position[p.id_of(comp)] == n - 1


def _is_downset(poset, ids):
    s = set(ids)
    return all(set(poset.down[x]) <= s for x in s)


@pytest.mark.parametrize("shape", [(5, 5, 5), (3, 4), (2, 2, 2, 2), (4, 4), (2, 3, 5)])
def test_chaser_prefixes_are_downsets(shape):
    p = M.multiset_lattice(shape)
    for table in (order_from_recipe(p, HC), order_from_recipe(p, BC)):
        by_pos = table.by_position()
        seen = set()
        for x in by_pos:
            seen.add(x)
            assert set(p.down[x]) <= seen  # incremental downset check


def test_block_order_trivial_partitions():
    p = M.multiset_lattice([4, 4])
    # every element its own block: block order == starts order
    colex = order_from_recipe(p, COLEX).position
    singletons = block_recipe(((1, 2, 3, 4), (1, 2, 3, 4)), COLEX)
    assert order_from_recipe(p, singletons).position == colex
    # one whole-toset block per coordinate: block order == the block's order
    assert order_from_recipe(p, block_recipe(((1,), (1,)), LEX, COLEX)).position == colex


def test_block_order_blocks_are_contiguous():
    p = M.multiset_lattice([4, 4])
    table = order_from_recipe(p, block_recipe(((1, 3), (1, 3)), LEX, LEX))
    block_of = lambda v: (v[0] // 2, v[1] // 2)
    seq = [block_of(lab) for lab in table.labels_in_order()]
    # all of block (0,0) first, and every block occupies one contiguous run
    assert seq[:4] == [(0, 0)] * 4
    runs = [b for b, _ in itertools.groupby(seq)]
    assert len(runs) == len(set(runs)) == 4


def test_block_order_restricted_to_block_matches_inner_order():
    p = M.multiset_lattice([4, 4])
    table = order_from_recipe(p, block_recipe(((1, 3), (1, 3)), LEX, COLEX))
    block = [x for x in range(p.n) if p.labels[x][0] >= 2 and p.labels[x][1] < 2]
    by_table = sorted(block, key=lambda x: table.position[x])
    by_inner = sorted(block, key=lambda x: tuple(reversed(p.labels[x])))
    assert by_table == by_inner


def test_block_order_malformed_partition():
    p = M.multiset_lattice([4, 4])
    with pytest.raises(OrderError):
        order_from_recipe(p, block_recipe(((2, 3), (1,)), LEX))


def test_initial_segment(m222):
    level = M.lex_order(m222).level_in_order(2)
    assert frozenset(level) == frozenset(m222.level(2))
    assert sorted(m222.labels[x] for x in level[:2]) == [(0, 1, 1), (1, 0, 1)]


def test_dual_order_roundtrip(m34):
    lex = M.lex_order(m34)
    dd = M.dual_order(M.dual_order(lex))
    assert dd.position == lex.position and dd.poset == m34
    assert M.dual_order(lex).by_position()[0] == lex.by_position()[m34.n - 1]


def test_dual_of_lex_on_m22():
    p = M.multiset_lattice([2, 2])
    d = M.dual_order(M.lex_order(p))
    assert d.labels_in_order() == ((1, 1), (1, 0), (0, 1), (0, 0))


def test_degree_major_order():
    p = M.multiset_lattice([3, 3], truncation=2)
    t = M.degree_major_order(p, per_rank={1: {"kind": "lex"}}, default={"kind": "colex"})
    assert t.labels_in_order() == ((0, 0), (0, 1), (1, 0), (2, 0), (1, 1), (0, 2))
    assert M.degree_major_order(p, per_rank={"1": LEX}, default=COLEX) == t
    # ranks are read as ASCII digits, and two keys may not name one rank
    for per_rank in ({"1_0": LEX}, {" 1": LEX}, {"\u0661": LEX}, {"+1": LEX}):
        with pytest.raises(OrderError, match="ranks must be integers"):
            M.degree_major_order(p, per_rank=per_rank)
    with pytest.raises(OrderError, match="name one rank twice"):
        M.degree_major_order(p, per_rank={"1": LEX, "01": COLEX})


def test_recipes_regenerate_identically(m34):
    tables = [
        M.lex_order(m34),
        *(order_from_recipe(m34, r) for r in (COLEX, dom(2, 1), HC, BC)),
        order_from_recipe(m34, block_recipe(((1, 2), (1, 3)), LEX, COLEX)),
        order_from_recipe(m34, block_recipe(((1, 2), (1, 3)), BC, "dom-by-block")),
        M.dual_order(M.lex_order(m34)),
        M.degree_major_order(m34, per_rank={1: {"kind": "lex"}}),
    ]
    for t in tables:
        again = order_from_recipe(t.poset, json.loads(json.dumps(t.recipe)))
        assert again.position == t.position, t.recipe


def test_order_is_bijection(m34):
    for t in (M.lex_order(m34), order_from_recipe(m34, BC)):
        assert sorted(t.position) == list(range(m34.n))


def test_hc_with_choices(m34):
    # choosing the reversing permutation at the full subset changes tie-breaks
    hc = order_from_recipe(m34, {"kind": "hc", "choices": [[[1, 2], [2, 1]]]})
    plain = order_from_recipe(m34, HC)
    assert hc.position != plain.position
    again = order_from_recipe(m34, hc.recipe)
    assert again.position == hc.position


def test_bc_with_choices_keeps_complement_identity(m34):
    choices = [[[1, 2], [2, 1]]]
    hc = order_from_recipe(m34, {"kind": "hc", "choices": choices})
    bc = order_from_recipe(m34, {"kind": "bc", "choices": choices})
    n = m34.n
    for x in range(n):
        comp = tuple(l - 1 - v for l, v in zip((3, 4), m34.labels[x]))
        assert bc.position[x] + hc.position[m34.id_of(comp)] == n - 1
    assert order_from_recipe(m34, bc.recipe).position == bc.position


@st.composite
def _vector_recipes(draw, d, lengths, depth=0):
    """A valid vector recipe for d coordinates; block recipes need the lengths."""
    kinds = ["lex", "colex", "dom", "hc", "bc"] + (["block"] if lengths and depth < 2 else [])
    kind = draw(st.sampled_from(kinds))
    recipe = {"kind": kind}
    if kind == "dom":
        recipe["perm"] = draw(st.permutations(range(1, d + 1)))
    elif kind in ("hc", "bc"):
        subsets = st.sets(st.integers(1, d), min_size=1).map(sorted)
        choices = [
            [draw(st.permutations(coords)), draw(st.permutations(range(1, len(coords) + 1)))]
            for coords in draw(st.lists(subsets, max_size=3, unique_by=tuple))
        ]
        if choices:
            recipe["choices"] = choices
    elif kind == "block":
        flags = [draw(st.lists(st.booleans(), min_size=l - 1, max_size=l - 1)) for l in lengths]
        recipe["cuts"] = [[1] + [i + 2 for i, cut in enumerate(f) if cut] for f in flags]
        n_blocks = [len(c) for c in recipe["cuts"]]
        recipe["starts"] = draw(_vector_recipes(d, n_blocks, depth + 1))
        rule = st.just("dom-by-block")
        recipe["blocks"] = draw(st.one_of(_vector_recipes(d, None, depth + 1), rule))
    return recipe


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_vector_keys_match_comparator_ranking(data):
    d = data.draw(st.integers(1, 4))
    lengths = data.draw(st.lists(st.integers(1, 5), min_size=d, max_size=d))
    recipe = data.draw(_vector_recipes(d, lengths))
    box = list(itertools.product(*map(range, lengths)))
    vectors = data.draw(st.just(box) | st.lists(st.sampled_from(box), min_size=1, unique=True))
    assert rank_vectors(vectors, lengths, recipe) == comparator_rank_vectors(vectors, lengths, recipe)


def test_unknown_block_rule_is_an_order_error(m34):
    # refused by the recipe's shape check, before any key is built
    with pytest.raises(OrderError, match="block order recipe has a malformed blocks: 'dom-by-leg'"):
        order_from_recipe(m34, block_recipe(((1,), (1,)), LEX, "dom-by-leg"))


def _json_only(shape):
    """Whether a RECIPE_FIELDS shape admits nothing but JSON values: a nested
    recipe, an object of str keys or a literal string is JSON too."""
    if isinstance(shape, (tuple, list)):
        return all(map(_json_only, shape))
    if isinstance(shape, dict):
        return list(shape) == [str] and all(map(_json_only, shape.values()))
    return isinstance(shape, str) or shape in (None, dict, list, str, int, RECIPE, VECTOR)


# one recipe of every kind, each fitting multiset:2,2
_EVERY_KIND = [
    LEX, COLEX, HC, BC, {"kind": "rep-lex"}, {"kind": "degree-rep-lex"}, dom(2, 1),
    {"kind": "block", "cuts": [[1], [1, 2]], "starts": LEX, "blocks": COLEX},
    {"kind": "explicit", "positions": [3, 1, 0, 2]}, {"kind": "dual", "of": LEX},
    {"kind": "degree-major", "per_rank": {"1": LEX}},
    {"kind": "family-default", "family": "colored", "params": [1, 1]},
    {"kind": "tensor-degree-lex", "sizes": [1, 1]},
]


def test_order_from_recipe_resolves_every_listed_kind_and_no_other():
    grid = M.multiset_lattice([2, 2])
    assert sorted(r["kind"] for r in _EVERY_KIND) == sorted(RECIPE_FIELDS)
    for recipe in _EVERY_KIND:
        table = order_from_recipe(grid, recipe)
        assert table.recipe["kind"] == recipe["kind"]
        assert order_from_recipe(grid, table.recipe) == table
    for recipe in ({"kind": "foo"}, {"kind": "dual", "of": {"kind": "foo"}}):
        with pytest.raises(OrderError, match="unknown order recipe kind 'foo'"):
            order_from_recipe(grid, recipe)


def test_recipe_fields_admit_only_json():
    # a callable field would not survive a recipe file
    bad = {(kind, f): shape for kind, fields in RECIPE_FIELDS.items()
           for f, shape in fields.items() if not _json_only(shape)}
    assert not bad


@st.composite
def _explicit_orders(draw):
    """A random order over a random ranked poset whose ids interleave the ranks."""
    n = draw(st.integers(1, 9))
    rank = [0]
    while len(rank) < n:
        rank.append(draw(st.integers(0, max(rank) + 1)))
    rank = draw(st.permutations(rank))
    covers = [(draw(st.sampled_from([a for a in range(n) if rank[a] + 1 == rank[b]])), b)
              for b in range(n) if rank[b]]
    return M.explicit_order(M.RankedPoset(n, covers, rank), draw(st.permutations(range(n))))


@settings(max_examples=300, deadline=None)
@given(_explicit_orders(), st.booleans())
def test_level_in_order_is_the_level_sorted_by_position(table, reverse):
    p = table.poset
    for i in range(-2, p.max_rank + 3):
        want = tuple(sorted(p.level(i), key=lambda x: table.position[x], reverse=reverse))
        assert table.level_in_order(i, reverse) == want


@pytest.mark.parametrize("build, message", [
    (lambda: order_from_recipe(M.multiset_lattice([1, 1]), block_recipe([[1]], LEX)),
     "block order has 1 partitions for 2 coordinates"),
    (lambda: order_from_recipe(M.chain(2), {"kind": "explicit", "positions": [0, 0]}),
     "positions must be a bijection onto 0..n-1"),
    (lambda: M.explicit_order(M.chain(2), [0, 0]),
     "explicit order must list every element exactly once"),
    (lambda: M.lex_order(M.RankedPoset(2, [(0, 1)], [0, 1], [(0,), (0, 1)])),
     "all labels must have the same dimension"),
    (lambda: M.lex_order(M.RankedPoset(2, [(0, 1)], [0, 1], [(0,), (0,)])),
     "position vectors must be distinct to define a total order"),
])
def test_order_refusals(build, message):
    with pytest.raises(OrderError, match=re.escape(message)):
        build()
