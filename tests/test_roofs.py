import re
from collections import Counter
from itertools import combinations

import pytest

from roofcalc.errors import MalformedContractionError, RankError, RoofcalcError
from roofcalc import roofs
from roofcalc.roofs import (
    classify,
    erase_and_component,
    is_projective_space_fiber,
    product_aa,
    simple_diagram,
)
from roofcalc.verify import _record_key, expected_roof_patterns


def reference_fiber(d):
    """The case analysis of degrees, ends and double bonds that
    `is_projective_space_fiber` replaced; it reads the whole diagram, so it
    is a reference on connected diagrams only."""
    if len(d.marked) != 1:
        return None
    (m,) = d.marked
    r = len(d.nodes)
    if r == 1:
        return 1
    degs = dict.fromkeys(d.nodes, 0)
    for a, b, _, _ in d.edges:
        degs[a] += 1
        degs[b] += 1
    if any(deg > 2 for deg in degs.values()):
        return None
    ends = [u for u, deg in degs.items() if deg == 1]
    if len(ends) != 2:
        return None
    doubles = [e for e in d.edges if e[2] == 2]
    if any(e[2] >= 3 for e in d.edges):
        return None
    if not doubles:
        return r if m in ends else None
    if len(doubles) > 1:
        return None
    a, b, _, head = doubles[0]
    if r == 2:
        return 3 if m == head else None
    end_of_double = a if a in ends else (b if b in ends else None)
    if end_of_double is None:
        return None
    if head == end_of_double:
        return None
    far_end = next(u for u in ends if u != end_of_double)
    return 2 * r - 1 if m == far_end else None


def connected_marked_diagrams():
    """Every simple diagram of rank <= 9 with one mark, and every component
    that erasing one or two nodes cuts from those or from A_a x A_b
    (a, b <= 4), marked at one remaining node: 5231 cases, repeats kept."""
    simple = []
    for family in "ABCDEFG":
        for rank in range(1, 10):
            try:
                simple.append(simple_diagram(family, rank))
            except RankError:
                pass
    cases = [d.with_marks({u}) for d in simple for u in d.nodes]
    products = [product_aa(a, b) for a in range(1, 5) for b in range(1, 5)]
    for d in simple + products:
        for size in (1, 2):
            for erased in combinations(d.nodes, size):
                cases.extend(
                    erase_and_component(d, erased, {u})
                    for u in d.nodes if u not in erased
                )
    return cases


def two_mark_cases():
    """Every diagram whose two-mark markings the differential test reads:
    each simple diagram of rank <= 9 and A_a x A_b for a, b <= 4."""
    cases = []
    for family in "ABCDEFG":
        for rank in range(1, 10):
            try:
                cases.append(simple_diagram(family, rank))
            except RankError:
                pass
    return cases + [product_aa(a, b) for a in range(1, 5) for b in range(1, 5)]


def both_fibers_reference(d, marks):
    """Both fibres the long way: erase one mark, take the other's component
    and read it as a fibre; None where either fibre is not a P^r."""
    x, y = marks
    f1 = is_projective_space_fiber(erase_and_component(d, {x}, {y}))
    f2 = is_projective_space_fiber(erase_and_component(d, {y}, {x}))
    return None if f1 is None or f2 is None else (f1, f2)


class TestEraseAndComponent:
    def test_path_splits(self):
        d = simple_diagram("A", 4).with_marks({1, 2})
        out = erase_and_component(d, {2}, {1})
        assert out.nodes == (1,)
        assert out.marked == {1}

    def test_component_containing_neighbour(self):
        d = simple_diagram("A", 4).with_marks({1, 2})
        out = erase_and_component(d, {1}, {2})
        assert out.nodes == (2, 3, 4)
        assert is_projective_space_fiber(out) == 3

    def test_erase_nothing_is_identity(self):
        d = simple_diagram("D", 5)
        out = erase_and_component(d, set(), {3})
        assert out.nodes == d.nodes
        assert out.edges == d.edges

    def test_disconnected_keep_raises(self):
        d = simple_diagram("A", 5)
        with pytest.raises(MalformedContractionError):
            erase_and_component(d, {3}, {2, 4})

    def test_overlap_raises(self):
        d = simple_diagram("A", 3)
        with pytest.raises(MalformedContractionError):
            erase_and_component(d, {2}, {2})

    @pytest.mark.parametrize("keep,missing", [({7}, 7), ({2, 9}, 9)])
    def test_kept_node_outside_the_diagram(self, keep, missing):
        d = simple_diagram("A", 3)
        message = re.escape(f"kept nodes [{missing}] not among nodes of A3")
        with pytest.raises(MalformedContractionError, match=message):
            erase_and_component(d, {1}, keep)

    @pytest.mark.parametrize("erased,missing", [({9}, [9]), ({1, 7, 9}, [7, 9])])
    def test_erased_node_outside_the_diagram(self, erased, missing):
        d = simple_diagram("A", 3)
        message = re.escape(f"erased nodes {missing} not among nodes of A3")
        with pytest.raises(MalformedContractionError, match=message):
            erase_and_component(d, erased, {2})


class TestFiberRecognition:
    def test_chain_end_marks(self):
        d = simple_diagram("A", 3)
        assert is_projective_space_fiber(d.with_marks({1})) == 3
        assert is_projective_space_fiber(d.with_marks({3})) == 3
        assert is_projective_space_fiber(d.with_marks({2})) is None

    def test_rank_two_symplectic(self):
        # both rank-2 doubly laced labellings: the short-root mark is P^3
        b2 = simple_diagram("B", 2)
        assert is_projective_space_fiber(b2.with_marks({2})) == 3
        assert is_projective_space_fiber(b2.with_marks({1})) is None

    def test_symplectic_chain(self):
        c4 = simple_diagram("C", 4)
        assert is_projective_space_fiber(c4.with_marks({1})) == 7
        assert is_projective_space_fiber(c4.with_marks({4})) is None

    def test_single_node(self):
        a1 = simple_diagram("A", 1)
        assert is_projective_space_fiber(a1.with_marks({1})) == 1

    def test_type_d_never_projective(self):
        d4 = simple_diagram("D", 4)
        for i in d4.nodes:
            assert is_projective_space_fiber(d4.with_marks({i})) is None

    def test_odd_orthogonal_end_is_quadric(self):
        b3 = simple_diagram("B", 3)
        assert is_projective_space_fiber(b3.with_marks({1})) is None
        assert is_projective_space_fiber(b3.with_marks({3})) is None

    def test_triple_edge_rejected(self):
        g2 = simple_diagram("G", 2)
        assert is_projective_space_fiber(g2.with_marks({1})) is None

    def test_unmarked_components_are_points(self):
        # the isolated A1, or the unmarked A2, is a point of G/P: P^2 both times
        assert is_projective_space_fiber(product_aa(1, 2).with_marks({2})) == 2
        assert is_projective_space_fiber(product_aa(2, 3).with_marks({1})) == 2

    def test_matches_reference_on_connected_diagrams(self):
        cases = connected_marked_diagrams()
        assert len(cases) == 5231
        for d in cases:
            assert is_projective_space_fiber(d) == reference_fiber(d), d


class TestBothFibers:
    def test_matches_erase_then_recognise(self):
        seen = 0
        for d in two_mark_cases():
            for marks in combinations(d.nodes, 2):
                got = roofs._both_fibers(roofs._bonds(d), marks)
                assert got == both_fibers_reference(d, marks), (d.label, marks)
                seen += got is not None
        assert seen == 210  # 97 on simple diagrams, 113 on products


@pytest.fixture(scope="module")
def records():
    return classify(8)


class TestClassify:
    def test_sl6_flags(self, records):
        a5 = [r for r in records if r.group == "A5" and r.family == "A^G"]
        assert [(r.marks, r.roof) for r in a5] == [
            ((1, 2), "F(1,2,6)"),
            ((2, 3), "F(2,3,6)"),
            ((3, 4), "F(3,4,6)"),
            ((4, 5), "F(4,5,6)"),
        ]
        for r in a5:
            k = r.marks[0]
            assert (r.fiber_dim1, r.fiber_dim2) == (5 - k, k)

    def test_g2_record(self, records):
        g2 = [r for r in records if r.group == "G2"]
        assert len(g2) == 1
        assert (g2[0].fiber_dim1, g2[0].fiber_dim2) == (1, 1)

    def test_f4_record(self, records):
        f4 = [r for r in records if r.group == "F4"]
        assert len(f4) == 1
        assert f4[0].marks == (2, 3)
        assert (f4[0].fiber_dim1, f4[0].fiber_dim2) == (2, 2)

    def test_no_e_series_records(self, records):
        assert not [r for r in records if r.group.startswith("E")]

    def test_family_counts(self, records):
        counts = Counter(r.family for r in records)
        assert counts == {
            "A^G": 28, "A^M": 6, "AxA": 16, "B": 7, "B^s": 1,
            "C": 27, "D": 5, "D^t": 2, "F4": 1, "G2": 1,
        }

    def test_equal_rank_exactly_on_balanced_fibers(self, records):
        for r in records:
            assert r.equal_rank == (r.fiber_dim1 == r.fiber_dim2)

    def test_self_dual_flags_have_distinct_markings(self, records):
        # F(k,k+1,2k+1): abstractly isomorphic bases, still two marks
        cy = [r for r in records if r.roof == "F(2,3,5)"]
        assert len(cy) == 1
        assert cy[0].marks == (2, 3)
        assert cy[0].base1 != cy[0].base2

    def test_product_roofs(self, records):
        prods = [r for r in records if r.family == "AxA"]
        assert len(prods) == 16
        assert ("P^1xP^1") in {r.roof for r in prods}
        for r in prods:
            assert r.equal_rank == (r.base1 == r.base2)

    def test_bad_rank(self):
        with pytest.raises(RankError):
            classify(1)

    def test_unlabelled_marking_raises(self):
        # classify labels only markings whose two fibres are projective
        # spaces; one outside every family pattern must not print as "?"
        with pytest.raises(RoofcalcError, match=r"\(1, 6\) of E6"):
            roofs._label_simple("E", 6, (1, 6))

    @pytest.mark.parametrize("max_rank", range(2, 13))
    def test_keys_match_expected_patterns(self, max_rank):
        got = [_record_key(r) for r in classify(max_rank)]
        assert len(got) == len(set(got))
        assert set(got) == expected_roof_patterns(max_rank)


class TestDiagramConstruction:
    def test_product_is_disconnected(self):
        d = product_aa(2, 3)
        assert len(d.nodes) == 5
        assert all(m == 1 for _, _, m, _ in d.edges)
        comp = erase_and_component(d, set(), {1})
        assert comp.nodes == (1, 2)

    def test_bourbaki_arrows(self):
        b4 = simple_diagram("B", 4)
        double = [e for e in b4.edges if e[2] == 2]
        assert double == [(3, 4, 2, 4)]  # arrow to the short root at the end
        c4 = simple_diagram("C", 4)
        double = [e for e in c4.edges if e[2] == 2]
        assert double == [(3, 4, 2, 3)]  # long root at the end
