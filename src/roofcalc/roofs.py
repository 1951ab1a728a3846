"""Marked Dynkin diagrams and the classification of homogeneous roofs.

A rational homogeneous variety of Picard rank two is a diagram with two
marked nodes; its two contractions have fibers given by erasing one marked
node and keeping the component of the other.  The variety is a roof of
projective bundles exactly when both fibers are projective spaces, which at
the diagram level means each contraction lands in one of two patterns: a
type A chain with an end node marked, or a type C chain with the end node of
the single-edge chain marked.  `classify` builds no erased diagram: it
builds each diagram's bond lists once and walks each fiber in place, from
one mark along the bonds that avoid the other (`_walk`).

Bourbaki numbering throughout.  Double edges carry their arrow (head = the
short root); erased subdiagrams keep it, which is what separates the B- and
C-type rank-2 contractions.
"""

from __future__ import annotations

from itertools import combinations, count

from .errors import MalformedContractionError, RankError, RoofcalcError
from .weights import Value


class MarkedDynkin(Value):
    """Dynkin diagram (possibly a product of two type-A factors) with marks.

    edges: tuples (u, v, multiplicity, head) with u < v; head is the node the
    arrow points to (the short root) or None for a single bond.
    """

    __slots__ = ("label", "nodes", "edges", "marked")

    def __init__(
        self, label: str, nodes: tuple[int, ...],
        edges: tuple[tuple[int, int, int, int | None], ...], marked=frozenset(),
    ):
        self.label, self.nodes = label, nodes
        self.edges, self.marked = edges, marked

    def with_marks(self, marks) -> "MarkedDynkin":
        marks = frozenset(marks)
        if not marks <= set(self.nodes):
            raise RankError(f"marks {set(marks)} not among nodes of {self.label}")
        return MarkedDynkin(self.label, self.nodes, self.edges, marks)


def _chain_edges(nodes: list[int]) -> list[tuple[int, int, int, int | None]]:
    return [(a, b, 1, None) for a, b in zip(nodes, nodes[1:])]


def simple_diagram(family: str, rank: int) -> MarkedDynkin:
    """Bourbaki diagram of a simple type: A(r>=1), B(r>=2), C(r>=3),
    D(r>=4), E6..E8, F4, G2."""
    nodes = list(range(1, rank + 1))
    if family == "A":
        if rank < 1:
            raise RankError("A needs rank >= 1")
        edges = _chain_edges(nodes)
    elif family == "B":
        if rank < 2:
            raise RankError("B needs rank >= 2")
        edges = _chain_edges(nodes[:-1]) + [(rank - 1, rank, 2, rank)]
    elif family == "C":
        if rank < 3:
            raise RankError("C needs rank >= 3 (B2 covers the rank-2 diagram)")
        edges = _chain_edges(nodes[:-1]) + [(rank - 1, rank, 2, rank - 1)]
    elif family == "D":
        if rank < 4:
            raise RankError("D needs rank >= 4")
        edges = _chain_edges(nodes[:-2]) + [(rank - 2, rank - 1, 1, None), (rank - 2, rank, 1, None)]
    elif family == "E":
        if rank not in (6, 7, 8):
            raise RankError("E needs rank in {6,7,8}")
        # Bourbaki: node 2 hangs off node 4 of the chain 1-3-4-5-...
        chain = [1, 3] + list(range(4, rank + 1))
        edges = _chain_edges(chain) + [(2, 4, 1, None)]
    elif family == "F":
        if rank != 4:
            raise RankError("F needs rank 4")
        edges = [(1, 2, 1, None), (2, 3, 2, 3), (3, 4, 1, None)]
    elif family == "G":
        if rank != 2:
            raise RankError("G needs rank 2")
        edges = [(1, 2, 3, 1)]
    else:
        raise RankError(f"unknown family {family!r}")
    return MarkedDynkin(f"{family}{rank}", tuple(nodes), tuple(edges))


def product_aa(a: int, b: int) -> MarkedDynkin:
    """A_a x A_b as one disconnected diagram; factor 2 nodes are a+1..a+b."""
    if a < 1 or b < 1:
        raise RankError("product factors need rank >= 1")
    nodes = tuple(range(1, a + b + 1))
    edges = tuple(_chain_edges(list(range(1, a + 1)))) + tuple(
        _chain_edges(list(range(a + 1, a + b + 1)))
    )
    return MarkedDynkin(f"A{a}xA{b}", nodes, edges)


def erase_and_component(
    d: MarkedDynkin, erased, keep
) -> MarkedDynkin:
    """Erase the given nodes, take the component containing `keep`, and mark
    the kept nodes there."""
    erased = frozenset(erased)
    keep = frozenset(keep)
    if erased & keep:
        raise MalformedContractionError("erased and kept nodes overlap")
    if not keep:
        raise MalformedContractionError("need at least one kept node")
    for what, given in (("kept", keep), ("erased", erased)):
        if missing := sorted(given - set(d.nodes)):
            raise MalformedContractionError(f"{what} nodes {missing} not among nodes of {d.label}")
    remaining = [u for u in d.nodes if u not in erased]
    adj: dict[int, set[int]] = {u: set() for u in remaining}
    for a, b, _, _ in d.edges:
        if a in adj and b in adj:
            adj[a].add(b)
            adj[b].add(a)
    start = min(keep)
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    if not keep <= seen:
        raise MalformedContractionError(
            f"kept nodes {set(keep)} span several components after erasing {set(erased)}"
        )
    nodes = tuple(sorted(seen))
    edges = tuple(e for e in d.edges if e[0] in seen and e[1] in seen)
    return MarkedDynkin(d.label + "'", nodes, edges, frozenset(keep))


def is_projective_space_fiber(d: MarkedDynkin) -> int | None:
    """Dimension of the projective space G/P that d represents, or None.

    d carries one mark.  Unmarked components are points of G/P, so only the
    marked node's component is read, by one walk from the mark along it
    (`_walk`): single bonds all the way to the far end give P^r (r nodes
    walked, A_r marked at an end); single bonds and then one double bond,
    with the short root (head) on the second-to-last node and the long root
    ending the chain, give P^{2r-1} (C_r marked at the far end, and B2
    marked at its short root, P^3).  A branch, a mark that is not an end,
    any other double bond or a triple bond give None.
    """
    if len(d.marked) != 1:
        return None
    (mark,) = d.marked
    return _walk(_bonds(d), mark)


def _bonds(d: MarkedDynkin) -> dict[int, list[tuple[int, int, int | None]]]:
    """Each node's bonds, as (neighbour, multiplicity, head)."""
    bonds: dict[int, list[tuple[int, int, int | None]]] = {u: [] for u in d.nodes}
    for a, b, mult, head in d.edges:
        bonds[a].append((b, mult, head))
        bonds[b].append((a, mult, head))
    return bonds


def _walk(bonds, u: int, erased: int | None = None) -> int | None:
    """`is_projective_space_fiber` of the component of u, marked at u, in
    the diagram of `bonds` with the node `erased` removed.  The walk never
    steps onto `erased`, so the fibre is read in place: the chain ends at a
    node whose only remaining bond is the one just walked."""
    prev = None
    # this ends: a walk meets no node twice, since the first node it met
    # again would have had a second bond ahead, and a branch returns first
    for r in count(1):
        ahead = [bond for bond in bonds[u] if bond[0] != prev and bond[0] != erased]
        if not ahead:
            return r
        if len(ahead) > 1:
            return None
        ((v, mult, head),) = ahead
        if mult == 2 and head == u and all(w in (u, erased) for w, _, _ in bonds[v]):
            return 2 * (r + 1) - 1  # r + 1 nodes: C_{r+1}, or B2 if r = 1
        if mult != 1:
            return None
        prev, u = u, v


class RoofRecord(Value):
    """One Picard-rank-two diagram whose two contractions are P-bundles."""

    __slots__ = (
        "group", "family", "type_label", "roof", "marks",
        "base1", "base2", "fiber_dim1", "fiber_dim2",
    )

    def __init__(
        self, group: str, family: str, type_label: str, roof: str,
        marks: tuple[int, int], base1: str, base2: str,
        fiber_dim1: int, fiber_dim2: int,
    ):
        self.group, self.family, self.type_label = group, family, type_label
        self.roof, self.marks, self.base1, self.base2 = roof, marks, base1, base2
        self.fiber_dim1, self.fiber_dim2 = fiber_dim1, fiber_dim2

    @property
    def equal_rank(self) -> bool:
        return self.fiber_dim1 == self.fiber_dim2

    def sort_key(self):
        return (self.group, self.marks)


def _grassmannian_label(i: int, n: int) -> str:
    if i in (1, n - 1):
        return f"P^{n - 1}"
    return f"G({i},{n})"


def _label_simple(family: str, rank: int, marks: tuple[int, int]) -> dict:
    """Pattern-match a qualifying marking to its family/type/base labels."""
    x, y = marks
    if family == "A":
        n = rank + 1
        if y == x + 1:
            return {
                "family": "A^G",
                "type_label": f"A^G_{{{x},{n - 1}}}",
                "roof": f"F({x},{x + 1},{n})",
                "base1": _grassmannian_label(x, n),
                "base2": _grassmannian_label(x + 1, n),
            }
        if (x, y) == (1, rank):
            return {
                "family": "A^M",
                "type_label": f"A^M_{{{n - 1}}}",
                "roof": f"F(1,{n - 1},{n})",
                "base1": f"P^{n - 1}",
                "base2": f"P^{n - 1}",
            }
    if family == "B" and (x, y) == (rank - 1, rank):
        n = 2 * rank + 1
        return {
            "family": "B",
            "type_label": f"B_{{{rank}}}",
            "roof": f"OF({rank - 1},{rank},{n})",
            "base1": f"OG({rank - 1},{n})",
            "base2": f"OG({rank},{n})",
        }
    if family == "B" and rank == 3 and (x, y) == (1, 3):
        # rank-2 coincidence: erasing node 1 leaves the doubly laced diagram
        # marked at its short root, whose quotient is P^3; the roof is the
        # projectivised spinor bundle over the 5-dimensional quadric
        return {
            "family": "B^s",
            "type_label": "B_3^s",
            "roof": "OF(1,3,7)",
            "base1": "OG(1,7)",
            "base2": "OG(3,7)",
        }
    if family == "D" and y in (rank - 1, rank) and x == 1 and rank == 4:
        # triality images of the {rank-1, rank} marking
        sign = "-" if y == rank - 1 else "+"
        return {
            "family": "D^t",
            "type_label": "D_4^t",
            "roof": f"D4/P{{1,{y}}}",
            "base1": "OG(1,8)",
            "base2": f"OG(4,8){sign}",
        }
    if family == "C" and y == x + 1:
        n = 2 * rank
        return {
            "family": "C",
            "type_label": f"C_{{{x + 1},{rank - 1}}}",
            "roof": f"IF({x},{x + 1},{n})",
            "base1": f"IG({x},{n})",
            "base2": f"IG({x + 1},{n})",
        }
    if family == "D" and (x, y) == (rank - 1, rank):
        n = 2 * rank
        return {
            "family": "D",
            "type_label": f"D_{{{rank}}}",
            "roof": f"OG({rank - 1},{n})",
            "base1": f"OG({rank},{n})-",
            "base2": f"OG({rank},{n})+",
        }
    if family == "F" and (x, y) == (2, 3):
        return {
            "family": "F4",
            "type_label": "F_4",
            "roof": "F4/P{2,3}",
            "base1": "F4/P2",
            "base2": "F4/P3",
        }
    if family == "G" and (x, y) == (1, 2):
        return {
            "family": "G2",
            "type_label": "G_2",
            "roof": "G2/P{1,2}",
            "base1": "G2/P1",
            "base2": "G2/P2",
        }
    raise RoofcalcError(f"no roof family matches the marking {marks} of {family}{rank}")


def classify(max_rank: int) -> list[RoofRecord]:
    """All Picard-rank-two markings of simple diagrams of rank <= max_rank
    (plus products of two type-A factors) whose two contractions are
    projective bundles.

    Simple diagrams are enumerated once per isomorphism class (B from rank 2,
    C from rank 3, D from rank 4).  For products every choice of an end node
    per factor gives the same roof, so marks are canonicalised to the first
    node of each factor with the smaller factor first.
    """
    if max_rank < 2:
        raise RankError(f"max_rank must be >= 2, got {max_rank}")
    records: list[RoofRecord] = []
    for family, lowest, highest in (  # (family, lowest rank, highest rank)
        ("A", 2, max_rank), ("B", 2, max_rank), ("C", 3, max_rank),
        ("D", 4, max_rank), ("E", 6, 8), ("F", 4, 4), ("G", 2, 2),
    ):
        for rank in range(lowest, min(highest, max_rank) + 1):
            diagram = simple_diagram(family, rank)
            bonds = _bonds(diagram)
            for marks in combinations(diagram.nodes, 2):
                fibers = _both_fibers(bonds, marks)
                if fibers is None:
                    continue
                records.append(
                    RoofRecord(
                        group=diagram.label,
                        marks=marks,
                        fiber_dim1=fibers[0],
                        fiber_dim2=fibers[1],
                        **_label_simple(family, rank, marks),
                    )
                )
    for a in range(1, max_rank):
        for b in range(a, max_rank - a + 1):
            diagram = product_aa(a, b)
            marks = (1, a + 1)
            fiber_dim1, fiber_dim2 = _both_fibers(_bonds(diagram), marks)
            records.append(
                RoofRecord(
                    group=diagram.label,
                    family="AxA",
                    type_label=f"A_{{{a}}}xA_{{{b}}}",
                    roof=f"P^{a}xP^{b}",
                    marks=marks,
                    base1=f"P^{a}",
                    base2=f"P^{b}",
                    fiber_dim1=fiber_dim1,
                    fiber_dim2=fiber_dim2,
                )
            )
    records.sort(key=RoofRecord.sort_key)
    return records


def _both_fibers(bonds, marks: tuple[int, int]) -> tuple[int, int] | None:
    """The two fibres of a two-mark marking, each walked from one mark with
    the other erased, or None unless both are projective spaces."""
    x, y = marks
    f1 = _walk(bonds, y, x)
    if f1 is None:
        return None
    f2 = _walk(bonds, x, y)
    if f2 is None:
        return None
    return (f1, f2)
