import itertools

import pytest
from hypothesis import given, settings, strategies as st

import macaulay as M
from macaulay import families as F
from macaulay.errors import OrderError
from macaulay.orders import BlockSpec, initial_segment, order_from_recipe, rank_vectors

from conftest import comparator_rank_vectors


def test_lex_on_m34_fills_columns(m34):
    lex = M.lex_order(m34)
    assert lex.labels_in_order()[:5] == ((0, 0), (0, 1), (0, 2), (0, 3), (1, 0))


def test_lex_level_restriction(m34):
    lex = M.lex_order(m34)
    assert [m34.labels[x] for x in lex.level_in_order(1)] == [(0, 1), (1, 0)]


def test_lex_singleton():
    s = M.singleton()
    assert M.lex_order(s).position == (0,)


def test_colex_on_m333():
    p = M.multiset_lattice([3, 3, 3])
    colex = M.colex_order(p)
    assert colex.labels_in_order()[:4] == ((0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0))


def test_colex_level_restriction(m34):
    colex = M.colex_order(m34)
    assert [m34.labels[x] for x in colex.level_in_order(1)] == [(1, 0), (0, 1)]


def test_colex_equals_lex_in_dimension_one():
    c = M.chain(5)
    assert M.colex_order(c) == M.lex_order(c)


def test_domination_identity_is_lex(m34):
    assert M.domination_order(m34, (1, 2)).position == M.lex_order(m34).position


def test_domination_reversal_is_colex(m34):
    assert M.domination_order(m34, (2, 1)).position == M.colex_order(m34).position


def test_domination_m22():
    p = M.multiset_lattice([2, 2])
    dom = M.domination_order(p, (2, 1))
    assert dom.labels_in_order() == ((0, 0), (1, 0), (0, 1), (1, 1))


def test_domination_invalid_perm(m34):
    with pytest.raises(OrderError):
        M.domination_order(m34, (1, 3))


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
    hc = M.hyperrectangle_chaser(m34)
    assert set(hc.labels_in_order()[:4]) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_hc_scd_ordering(m34):
    # (1,1) before (2,0): single coordinate distance 2 < 3
    hc = M.hyperrectangle_chaser(m34)
    assert hc.position[m34.id_of((1, 1))] < hc.position[m34.id_of((2, 0))]


def test_bc_first_elements(m34):
    bc = M.border_chaser(m34)
    assert bc.labels_in_order()[0] == (0, 0)
    assert all(v[0] == 0 or v[1] == 0 for v in bc.labels_in_order()[:3])


def test_bc_on_chain_is_chain_order():
    c = M.chain(5)
    assert M.border_chaser(c).position == M.lex_order(c).position


def test_bc_hc_complement_identity():
    for shape in [(3, 4), (2, 2, 2), (4, 4)]:
        p = M.multiset_lattice(shape)
        hc = M.hyperrectangle_chaser(p)
        bc = M.border_chaser(p)
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
    for table in (M.hyperrectangle_chaser(p), M.border_chaser(p)):
        by_pos = table.by_position()
        seen = set()
        for x in by_pos:
            seen.add(x)
            assert set(p.down[x]) <= seen  # incremental downset check


def test_block_order_trivial_partitions():
    p = M.multiset_lattice([4, 4])
    # every element its own block: block order == starts order
    spec = BlockSpec(((1, 2, 3, 4), (1, 2, 3, 4)), {"kind": "colex"})
    assert M.block_order(p, spec).position == M.colex_order(p).position
    # one whole-toset block per coordinate: block order == the block's order
    spec = BlockSpec(((1,), (1,)), {"kind": "lex"}, {"kind": "colex"})
    assert M.block_order(p, spec).position == M.colex_order(p).position


def test_block_order_blocks_are_contiguous():
    p = M.multiset_lattice([4, 4])
    spec = BlockSpec(((1, 3), (1, 3)), {"kind": "lex"}, {"kind": "lex"})
    table = M.block_order(p, spec)
    block_of = lambda v: (v[0] // 2, v[1] // 2)
    seq = [block_of(lab) for lab in table.labels_in_order()]
    # all of block (0,0) first, and every block occupies one contiguous run
    assert seq[:4] == [(0, 0)] * 4
    runs = [b for b, _ in itertools.groupby(seq)]
    assert len(runs) == len(set(runs)) == 4


def test_block_order_restricted_to_block_matches_inner_order():
    p = M.multiset_lattice([4, 4])
    spec = BlockSpec(((1, 3), (1, 3)), {"kind": "lex"}, {"kind": "colex"})
    table = M.block_order(p, spec)
    block = [x for x in range(p.n) if p.labels[x][0] >= 2 and p.labels[x][1] < 2]
    by_table = sorted(block, key=lambda x: table.position[x])
    by_inner = sorted(block, key=lambda x: tuple(reversed(p.labels[x])))
    assert by_table == by_inner


def test_block_order_malformed_partition():
    p = M.multiset_lattice([4, 4])
    with pytest.raises(OrderError):
        M.block_order(p, BlockSpec(((2, 3), (1,)), {"kind": "lex"}))


def test_initial_segment(m222):
    lex = M.lex_order(m222)
    assert initial_segment(lex, 2, 0) == frozenset()
    assert initial_segment(lex, 2, 3) == frozenset(m222.level(2))
    seg = initial_segment(lex, 2, 2)
    assert sorted(m222.labels[x] for x in seg) == [(0, 1, 1), (1, 0, 1)]
    with pytest.raises(OrderError):
        initial_segment(lex, 2, 4)


def test_dual_order_roundtrip(m34):
    lex = M.lex_order(m34)
    dd = M.dual_order(M.dual_order(lex))
    assert dd.position == lex.position and dd.poset == m34
    assert M.dual_order(lex).element_at(0) == lex.element_at(m34.n - 1)


def test_dual_of_lex_on_m22():
    p = M.multiset_lattice([2, 2])
    d = M.dual_order(M.lex_order(p))
    assert d.labels_in_order() == ((1, 1), (1, 0), (0, 1), (0, 0))


def test_degree_major_order():
    p = M.multiset_lattice([3, 3], truncation=2)
    t = M.degree_major_order(p, per_rank={1: {"kind": "lex"}}, default={"kind": "colex"})
    assert t.labels_in_order() == ((0, 0), (0, 1), (1, 0), (2, 0), (1, 1), (0, 2))


def test_recipes_regenerate_identically(m34):
    tables = [
        M.lex_order(m34),
        M.colex_order(m34),
        M.domination_order(m34, (2, 1)),
        M.hyperrectangle_chaser(m34),
        M.border_chaser(m34),
        M.dual_order(M.lex_order(m34)),
        M.block_order(m34, BlockSpec(((1, 2), (1, 3)), {"kind": "lex"}, {"kind": "colex"})),
        M.degree_major_order(m34, per_rank={1: {"kind": "lex"}}),
    ]
    for t in tables:
        again = order_from_recipe(t.poset, t.recipe)
        assert again.position == t.position, t.recipe


def test_order_is_bijection(m34):
    for t in (M.lex_order(m34), M.border_chaser(m34)):
        assert sorted(t.position) == list(range(m34.n))


def test_hc_with_choices(m34):
    # choosing the reversing permutation at the full subset changes tie-breaks
    hc = M.hyperrectangle_chaser(m34, choices={(0, 1): (2, 1)})
    plain = M.hyperrectangle_chaser(m34)
    assert hc.position != plain.position
    again = order_from_recipe(m34, hc.recipe)
    assert again.position == hc.position


def test_bc_with_choices_keeps_complement_identity(m34):
    choices = {(0, 1): (2, 1)}
    hc = M.hyperrectangle_chaser(m34, choices=choices)
    bc = M.border_chaser(m34, choices=choices)
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
        be_rule = lambda b: {"kind": "dom", "perm": F._be_block_perm(b)}  # noqa: E731
        recipe["blocks"] = draw(st.one_of(_vector_recipes(d, None, depth + 1), st.just(be_rule)))
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
