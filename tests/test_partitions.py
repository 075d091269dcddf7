import re
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from affine_fock import core_quotient, equivariant, fock, maya
from affine_fock import frenkel_kac as fk
from affine_fock import partitions as pt
from affine_fock.partitions import LaurentPoly, Vec
from conftest import levels, partitions, stub_everywhere
from node_walk import addable_of_residue, eta, removable_of_residue


def test_as_partition_validates():
    assert pt.as_partition([3, 1]) == (3, 1)
    assert pt.as_partition(()) == ()
    with pytest.raises(ValueError):
        pt.as_partition([1, 2])
    with pytest.raises(ValueError):
        pt.as_partition([2, 0])
    with pytest.raises(ValueError):
        pt.as_partition([-1])
    # one pass, yet a part that is not positive still outranks an ascent
    with pytest.raises(ValueError, match="must be positive"):
        pt.as_partition([1, 2, 0])


@pytest.mark.parametrize(
    "call,value",
    [
        (lambda: pt.as_partition((2.9, 1.2)), (2.9, 1.2)),
        (lambda: core_quotient.core_and_quotient((2.9, 1.2), 2), (2.9, 1.2)),
        (lambda: equivariant.points_vector((1, -1), 0.7, 2), 0.7),
        (lambda: fock.vacuum(1.5), 1.5),
        (lambda: fock.heis(1.5, fock.vacuum()), 1.5),
        (lambda: fk.heis_tensor(1.5, 0, Vec.basis(((0, 0), ((), ())))), 1.5),
        (lambda: core_quotient.core_and_quotient((2, 1), 2.0), 2.0),
        (lambda: maya.strand_positions(2.0), 2.0),
        (lambda: pt.residue_counts((2, 1), 2.0), 2.0),
        (lambda: pt.residue_boundary((2, 1), 0, 2.0), 2.0),
        (lambda: pt.enumerate_partitions(2.5), 2.5),
        (lambda: pt.partitions_up_to(2.5), 2.5),
        # a float degree bound used to raise a TypeError from inside range()
        (lambda: fock.verify_boson_fermion(1.5, 0), 1.5),
        (lambda: fock.verify_boson_fermion(2, 1.0), 1.0),
        # 1.0 ran as the sign 1; a float degree raised a TypeError from range()
        (lambda: fock.gamma_coeff(1.0, 2, fock.vacuum()), 1.0),
        (lambda: fock.gamma_coeff(1, 2.0, fock.vacuum()), 2.0),
    ],
    ids=["as_partition", "core_and_quotient", "points_vector", "vacuum", "heis", "heis_tensor",
         "strand_count", "strand_positions", "residue_counts", "residue_boundary",
         "enumerate_partitions", "partitions_up_to", "boson_fermion_degree",
         "boson_fermion_charge", "gamma_coeff_sign", "gamma_coeff_degree"],
)
def test_non_int_is_refused_not_truncated(call, value):
    """Each entry refuses a float with a ValueError that names it, instead
    of cutting it to int() and carrying on."""
    with pytest.raises(ValueError, match=re.escape(repr(value))):
        call()


def test_non_int_residue_is_refused():
    # a float residue used to run silently: h_1.5 gave 0 and e_1.0 was e_1;
    # a generator name can no longer carry one, so the check is the gate
    with pytest.raises(ValueError, match=re.escape("1.5")):
        pt.check_residue(1.5, 3)
    with pytest.raises(ValueError, match=re.escape("1.0")):
        pt.check_residue(1.0, 2)
    assert pt.check_residue(1, 2) == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda: pt.as_partition((True,)),
        lambda: pt.check_l(True),
        lambda: pt.check_residue(True, 2),
        lambda: core_quotient.check_core_vector((True, -1), 2),
        lambda: fock.check_mode(True),
        # True used to pass for l = 1: core_and_quotient((2, 1), True) ran
        lambda: core_quotient.core_and_quotient((2, 1), True),
        lambda: maya.strand_positions(True),
        lambda: pt.residue_counts((2, 1), True),
        lambda: pt.residue_boundary((2, 1), 0, True),
        lambda: pt.enumerate_partitions(True),
        lambda: pt.partitions_up_to(True),
        # True used to run as degree 1, and is_l_core((2, 1), True) as l = 1
        lambda: fock.verify_boson_fermion(True, 0),
        lambda: core_quotient.is_l_core((2, 1), True),
        # True used to run as the sign 1 and as degree 1 in gamma_coeff
        lambda: fock.gamma_coeff(True, 1, fock.vacuum()),
        lambda: fock.gamma_coeff(1, True, fock.vacuum()),
    ],
    ids=["as_partition", "check_l", "check_residue", "check_core_vector", "check_mode",
         "strand_count", "strand_positions", "residue_counts", "residue_boundary",
         "enumerate_partitions", "partitions_up_to", "boson_fermion", "is_l_core",
         "gamma_coeff_sign", "gamma_coeff_degree"],
)
def test_bool_is_not_an_int(call):
    """The library's int checks keep the CLI's rule, which refuses a JSON
    true: a bool is not an int."""
    with pytest.raises(ValueError, match="True"):
        call()


class _Stubbed(Exception):
    pass


_ARG = object()  # the argument under test; the stub passes every other through


@pytest.mark.parametrize(
    "name,call",
    [
        ("check_count", lambda: pt.enumerate_partitions(_ARG)),
        ("check_count", lambda: pt.partitions_up_to(_ARG)),
        ("check_count", lambda: equivariant.points_vector((1, -1), _ARG, 2)),
        ("check_count", lambda: fock.gamma_coeff(1, _ARG, fock.vacuum())),
        ("check_count", lambda: fock.verify_boson_fermion(_ARG, 0)),
        ("check_count", lambda: fock.verify_boson_fermion(0, _ARG)),
        ("check_strands", lambda: core_quotient.core_and_quotient((2, 1), _ARG)),
        ("check_strands", lambda: core_quotient.check_core_vector((0, 0), _ARG)),
        ("check_strands", lambda: core_quotient.cq_inverse((0, 0), ((), ()), _ARG)),
        ("check_strands", lambda: core_quotient.core_partition((0, 0), _ARG)),
        ("check_strands", lambda: core_quotient.is_l_core((2, 1), _ARG)),
        ("check_strands", lambda: core_quotient.quotient_char_rhs((0, 0), ((), ()), _ARG)),
        ("check_strands", lambda: maya.strand_positions(_ARG)),
        ("check_strands", lambda: pt.residue_counts((2, 1), _ARG)),
        ("check_strands", lambda: pt.residue_boundary((2, 1), 0, _ARG)),
    ],
    ids=["enumerate_partitions", "partitions_up_to", "points_vector", "gamma_coeff",
         "boson_fermion_degree", "boson_fermion_charge", "core_and_quotient",
         "check_core_vector", "cq_inverse", "core_partition", "is_l_core",
         "quotient_char_rhs", "strand_positions", "residue_counts", "residue_boundary"],
)
def test_one_check_per_rule(monkeypatch, name, call):
    """Sizes and bounds go through check_count, strand counts through
    check_strands, and no entry tests either inline: with the check
    replaced wherever a module binds it by a stub that raises on _ARG and
    returns any other argument unchecked, _ARG reaches the stub before
    anything else looks at it."""

    def stub(value, *rest):
        if value is _ARG:
            raise _Stubbed(name)
        return value

    assert stub_everywhere(monkeypatch, getattr(pt, name), stub)
    with pytest.raises(_Stubbed, match=name):
        call()


def contains(lam: tuple[int, ...], node: tuple[int, int]) -> bool:
    a, b = node
    return 0 <= a < len(lam) and 0 <= b < lam[a]


def test_nodes_and_contents():
    assert list(pt.nodes((2, 1))) == [(0, 0), (0, 1), (1, 0)]
    assert [pt.content(x) for x in pt.nodes((2, 1))] == [0, -1, 1]
    assert contains((2, 1), (0, 1))
    assert not contains((2, 1), (1, 1))


def test_transpose_frozen():
    assert pt.transpose(()) == ()
    assert pt.transpose((2,)) == (1, 1)
    assert pt.transpose((2, 1)) == (2, 1)
    assert pt.transpose((4, 2, 1)) == (3, 2, 1, 1)


@given(partitions())
def test_transpose_involution(lam):
    assert pt.transpose(pt.transpose(lam)) == lam
    assert pt.size(pt.transpose(lam)) == pt.size(lam)


def test_diagonal_char_frozen():
    assert pt.diagonal_char(()) == LaurentPoly.zero()
    assert pt.diagonal_char((1,)) == LaurentPoly({0: 1})
    assert pt.diagonal_char((2, 1)) == LaurentPoly({-1: 1, 0: 1, 1: 1})


@given(partitions())
def test_diagonal_char_counts_nodes(lam):
    char = pt.diagonal_char(lam)
    assert char.at_one() == pt.size(lam)
    # transposing mirrors every content
    assert pt.diagonal_char(pt.transpose(lam)) == char.compose_power(-1)


@given(partitions(), levels)
def test_residue_counts_split_the_size(lam, l):
    counts = pt.residue_counts(lam, l)
    assert len(counts) == l
    assert sum(counts) == pt.size(lam)
    char = pt.diagonal_char(lam)
    assert counts == tuple(char.keep_residue(l, r).at_one() for r in range(l))


def test_addable_removable_frozen():
    assert pt.addable_nodes(()) == [(0, 0)]
    assert pt.removable_nodes(()) == []
    assert pt.addable_nodes((2, 1)) == [(0, 2), (1, 1), (2, 0)]
    assert pt.removable_nodes((2, 1)) == [(0, 1), (1, 0)]


@given(partitions())
def test_one_more_addable_than_removable(lam):
    assert len(pt.addable_nodes(lam)) == len(pt.removable_nodes(lam)) + 1


@given(partitions(), levels)
def test_boundary_nodes_merge(lam, l):
    # at l = 1 the residue-0 boundary is the whole boundary
    _, merged = pt.residue_boundary(lam, 0, 1)
    assert sorted(x for x, step, _ in merged if step == 1) == sorted(
        pt.addable_nodes(lam)
    )
    assert sorted(x for x, step, _ in merged if step == -1) == sorted(
        pt.removable_nodes(lam)
    )
    contents = [pt.content(x) for x, _, _ in merged]
    assert contents == sorted(contents)
    split = []
    for i in range(l):
        _, chosen = pt.residue_boundary(lam, i, l)
        assert all(pt.content(x) % l == i for x, _, _ in chosen)
        split += [(x, step) for x, step, _ in chosen]
    assert sorted(split) == sorted((x, step) for x, step, _ in merged)


def test_residue_boundary_frozen():
    # (2,1) at l=2: residue-1 removables at contents -1 and 1, and three
    # nodes of residues 0 and 1 together
    assert pt.residue_boundary((2, 1), 1, 2) == (
        1,
        [((0, 1), -1, 0), ((1, 0), -1, -1)],
    )
    assert pt.residue_boundary((), 0, 3) == (0, [((0, 0), 1, 0)])
    assert pt.residue_boundary((), 1, 3) == (0, [])
    with pytest.raises(ValueError):
        pt.residue_boundary((1,), 0, 0)


@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_residue_boundary_matches_node_walk(l):
    """The one-pass scan against the node-walking helpers it replaced,
    which live on in node_walk as its reference: every |lam| <= 12, every
    i."""
    for lam in pt.partitions_up_to(12):
        counts = pt.residue_counts(lam, l)
        for i in range(l):
            odd, boundary = pt.residue_boundary(lam, i, l)
            assert odd == (counts[(i - 1) % l] + counts[i]) % 2
            addable = addable_of_residue(lam, i, l)
            removable = removable_of_residue(lam, i, l)
            assert [x for x, step, _ in boundary if step == 1] == addable
            assert [x for x, step, _ in boundary if step == -1] == removable
            contents = [pt.content(x) for x, _, _ in boundary]
            assert contents == sorted(set(contents))
            total = sum(step for _, step, _ in boundary)
            assert total == len(addable) - len(removable)
            for x, step, left in boundary:
                assert left == eta(lam, i, x, l, "left")
                assert total - left - step == eta(lam, i, x, l, "right")


@given(partitions())
def test_add_remove_round_trip(lam):
    for x in pt.removable_nodes(lam):
        assert pt.add_node(pt.remove_node(lam, x), x) == lam
    for x in pt.addable_nodes(lam):
        assert pt.remove_node(pt.add_node(lam, x), x) == lam


def test_add_remove_reject_bad_nodes():
    with pytest.raises(ValueError):
        pt.add_node((2, 1), (0, 1))
    with pytest.raises(ValueError):
        pt.remove_node((2, 1), (0, 0))


def _row_list_add(lam, node):
    a, _ = node
    rows = list(lam) + [0]
    rows[a] += 1
    return tuple(r for r in rows if r)


def _row_list_remove(lam, node):
    a, _ = node
    rows = list(lam)
    rows[a] -= 1
    return tuple(r for r in rows if r)


def test_node_checks_accept_exactly_the_boundary():
    """add_node and remove_node check the node against its own row and the
    neighbouring one: on every |lam| <= 8 and every node in [-1, len + 1] x
    [-1, lam_1 + 1] they succeed exactly on addable_nodes / removable_nodes,
    with the row-list result, and raise the same message elsewhere."""
    for lam in pt.partitions_up_to(8):
        addable, removable = pt.addable_nodes(lam), pt.removable_nodes(lam)
        width = lam[0] if lam else 0
        for a in range(-1, len(lam) + 2):
            for b in range(-1, width + 2):
                node = (a, b)
                if node in addable:
                    assert pt.add_node(lam, node) == _row_list_add(lam, node)
                else:
                    message = re.escape(f"node {node} is not addable to {lam}")
                    with pytest.raises(ValueError, match=message):
                        pt.add_node(lam, node)
                if node in removable:
                    assert pt.remove_node(lam, node) == _row_list_remove(lam, node)
                else:
                    message = re.escape(f"node {node} is not removable from {lam}")
                    with pytest.raises(ValueError, match=message):
                        pt.remove_node(lam, node)


def test_hook_lengths_frozen():
    assert pt.hook_lengths((2, 1)) == {(0, 0): 3, (0, 1): 1, (1, 0): 1}
    assert pt.hook_lengths((3,)) == {(0, 0): 3, (0, 1): 2, (0, 2): 1}


@given(partitions())
def test_hook_multiset_transpose_invariant(lam):
    hooks = sorted(pt.hook_lengths(lam).values())
    assert sorted(pt.hook_lengths(pt.transpose(lam)).values()) == hooks


def test_eta_frozen():
    # residue-1 boundary of (2,1) at l=2 holds two removables, at contents
    # -1 and 1; scanning from the content-1 node sees one removable left
    assert eta((2, 1), 1, (1, 0), 2, "left") == -1
    assert eta((2, 1), 1, (1, 0), 2, "right") == 0
    assert eta((2, 1), 1, (0, 1), 2, "left") == 0
    assert eta((2, 1), 1, (0, 1), 2, "right") == -1
    with pytest.raises(ValueError):
        eta((2, 1), 1, (1, 0), 2, "up")


@given(partitions(), levels)
def test_eta_scan_bookkeeping(lam, l):
    """Both one-sided scans around a boundary node add up to the addable
    minus removable count, off by one with the sign of the node's kind."""
    for i in range(l):
        n_add = len(addable_of_residue(lam, i, l))
        n_rem = len(removable_of_residue(lam, i, l))
        for x in removable_of_residue(lam, i, l):
            both = eta(lam, i, x, l, "left") + eta(lam, i, x, l, "right")
            assert both == n_add - n_rem + 1
        for x in addable_of_residue(lam, i, l):
            both = eta(lam, i, x, l, "left") + eta(lam, i, x, l, "right")
            assert both == n_add - n_rem - 1


laurent_dicts = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=6,
)


@given(laurent_dicts)
def test_laurent_json_round_trip(coeffs):
    poly = LaurentPoly(coeffs)
    assert LaurentPoly.from_json(poly.to_json()) == poly


@given(laurent_dicts, laurent_dicts)
def test_laurent_arithmetic(c1, c2):
    p, q = LaurentPoly(c1), LaurentPoly(c2)
    assert (p + q).at_one() == p.at_one() + q.at_one()
    assert (p * q).at_one() == p.at_one() * q.at_one()
    assert p - p == LaurentPoly.zero()
    assert p.compose_power(-1).compose_power(-1) == p
    assert p.shift(3).shift(-3) == p


@given(laurent_dicts, levels)
def test_laurent_residue_classes_partition(coeffs, l):
    poly = LaurentPoly(coeffs)
    total = LaurentPoly.zero()
    for r in range(l):
        total = total + poly.keep_residue(l, r)
    assert total == poly


def test_laurent_fraction_coefficients():
    poly = LaurentPoly({2: Fraction(1, 3)})
    assert (3 * poly).coeff(2) == 1
    assert LaurentPoly.from_json(poly.to_json()) == poly


def test_laurent_is_a_vec():
    """One sparse type: LaurentPoly is a Vec, and Vec arithmetic on it
    keeps the subclass (and so its repr and polynomial product)."""
    p, q = LaurentPoly({1: 2, -1: 1}), LaurentPoly({0: 1})
    assert isinstance(p, Vec) and p.terms == {1: 2, -1: 1}
    for r in (-p, p - q, p + q, 2 * p, p * 2, p * q):
        assert type(r) is LaurentPoly
    assert repr(-p) == "-1*z^-1 + -2*z"
    assert (2 * p) * q == LaurentPoly({1: 4, -1: 2})


def test_vec_constructor_copies_and_drops_zeros():
    source = {"a": 1, "b": 0, "c": -2}
    v = Vec(source)
    assert v.terms == {"a": 1, "c": -2}
    source["a"] = 5
    source["d"] = 1
    assert v.terms == {"a": 1, "c": -2}
    assert Vec([("a", 1), ("b", 0)]).terms == {"a": 1}
    assert Vec([("a", 1), ("a", 0)]).terms == {}  # the last pair wins, as in dict()
    assert Vec().terms == Vec(None).terms == Vec({}).terms == Vec([]).terms == {}
    assert Vec(source).terms is not source


def vec_terms_oracle(terms):
    """The constructor's filter as a comprehension over every term, the
    form it had before it copied with dict() and filtered only on a zero."""
    if not isinstance(terms, dict):
        terms = dict(terms or ())
    return {k: v for k, v in terms.items() if v}


vec_labels = st.one_of(st.integers(-3, 3), st.tuples(st.integers(1, 3), st.integers(1, 3)))
vec_coeffs = st.one_of(
    st.integers(-2, 2),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
)
vec_pairs = st.lists(st.tuples(vec_labels, vec_coeffs), max_size=8)
# each form of constructor input, built from one list of pairs
VEC_INPUTS = {
    "dict": dict,
    "pair list": list,
    "pair iterator": iter,
    "None": lambda pairs: None,
    "empty dict": lambda pairs: {},
    "empty list": lambda pairs: [],
}


@given(vec_pairs, st.sampled_from(sorted(VEC_INPUTS)))
def test_vec_constructor_matches_the_comprehension_oracle(pairs, form):
    """Dicts with and without zeros, pair lists that repeat a label (the
    last pair wins), a one-shot iterator, None and empty inputs: the terms
    equal the oracle's, in the same order, and a later change to the input
    leaves the Vec as it was."""
    expected = vec_terms_oracle(VEC_INPUTS[form](pairs))
    source = VEC_INPUTS[form](pairs)
    v = Vec(source)
    assert v.terms == expected and list(v.terms.items()) == list(expected.items())
    assert v.terms is not source and 0 not in v.terms.values()
    if isinstance(source, dict):
        source.clear()
        source["new"] = 1
    elif isinstance(source, list):
        source.append(("new", 1))
        source[:1] = [("changed", 5)]
    assert v.terms == expected


def test_vec_operations_drop_zero_coefficients():
    u, w = Vec({"a": 1, "b": 2}), Vec({"a": -1, "b": 3})
    assert (u + w).terms == {"b": 5}
    assert (u - u).terms == {} and not u - u
    assert (u - Vec({"b": 2})).terms == {"a": 1}
    # two labels whose images cancel, and a one-term vector whose image is 0
    assert u.apply(lambda x: [("z", 2 if x == "a" else -1)]).terms == {}
    assert Vec.basis("a").apply(lambda x: ()).terms == {}
    assert (3 * Vec.basis("a")).apply(lambda x: [("y", 1), ("z", -1)]).terms == {"y": 3, "z": -3}


def test_apply_adds_up_a_label_repeated_in_one_image(monkeypatch):
    """An image may name a label more than once; its coefficients add up,
    and apply builds exactly one Vec."""
    u = Vec({"a": 2, "b": 1})
    built = []
    init = Vec.__init__

    def counted(self, terms=None):
        built.append(terms)
        init(self, terms)

    monkeypatch.setattr(Vec, "__init__", counted)
    image = u.apply(lambda x: [("y", 1), ("z", 1), ("y", 2)] if x == "a" else [("y", -6)])
    assert len(built) == 1
    assert image.terms == {"z": 2}
    assert Vec.basis("a").apply(lambda x: [("y", 1), ("y", -1)]).terms == {}


def test_one_term_apply_is_a_plain_vec():
    poly = LaurentPoly({1: 2, -1: 1})
    one = Vec.basis("a").apply(lambda x: poly.terms.items())
    assert type(one) is Vec and one.terms == poly.terms
    scaled = (2 * Vec.basis("a")).apply(lambda x: poly.terms.items())
    assert type(scaled) is Vec and scaled.terms == {1: 4, -1: 2}
    assert type(Vec({"a": 1, "b": 1}).apply(lambda x: poly.terms.items())) is Vec
    assert poly.terms == {1: 2, -1: 1}


def test_enumeration_counts_and_order():
    sizes = [len(pt.enumerate_partitions(n)) for n in range(11)]
    assert sizes == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert pt.partitions_up_to(3) == [
        (),
        (1,),
        (2,),
        (1, 1),
        (3,),
        (2, 1),
        (1, 1, 1),
    ]
    assert pt.partitions_up_to(0) == [()]
    with pytest.raises(ValueError):
        pt.partitions_up_to(-1)


@given(st.integers(min_value=0, max_value=10))
def test_enumeration_is_exact(n):
    parts = pt.enumerate_partitions(n)
    assert len(set(parts)) == len(parts)
    assert all(pt.size(lam) == n for lam in parts)
