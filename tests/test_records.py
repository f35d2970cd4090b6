"""The package's records behave as the frozen dataclasses they replace.

The module-level classes below are those dataclasses, field for field and
check for check, named as the records are, so that the dataclass repr
(which prints the class's qualified name) can be compared with the
record's.  Each record is built from the same arguments as its reference
and must agree with it on repr, equality with every other sample (across
classes too), hash, keyword and positional construction, defaults, the
errors of its checks, and the refusal to have a field assigned or deleted.

The expression nodes keep their own stack-based equality, hash and repr,
as the dataclasses had with ``eq=False, repr=False``; their references
use the generated methods instead, which agree with them on the shallow
samples here, except for the hash, whose field order differs.  So for
them the hash is checked against equality only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import ClassVar

import pytest

from bchrom import bcoloring, dominance, graph, oracle, reduction, tree_dp
from bchrom.errors import NotATree, RangeError
from bchrom.graph import is_tree


@dataclass(frozen=True)
class Graph:
    n: int
    adj: tuple

    def __post_init__(self) -> None:
        if self.n < 0 or len(self.adj) != self.n:
            raise ValueError("adjacency length must equal vertex count")


@dataclass(frozen=True)
class TcLeaf:
    tree: object
    vertices: tuple
    co: bool = False

    def __post_init__(self) -> None:
        if not is_tree(self.tree):
            raise NotATree("leaf graph must be a tree")
        if len(self.vertices) != self.tree.n:
            raise ValueError("vertex map length mismatch")


@dataclass(frozen=True)
class _TcOperation:
    head: ClassVar[str]
    children: tuple
    span: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError(f"{self.head} needs at least two children")
        object.__setattr__(self, "span", sum(c.span for c in self.children))


@dataclass(frozen=True)
class TcUnion(_TcOperation):
    head = "union"


@dataclass(frozen=True)
class TcJoin(_TcOperation):
    head = "join"


@dataclass(frozen=True)
class DominanceVector:
    chi: int
    values: tuple

    def __post_init__(self) -> None:
        if not self.values or self.values[0] != self.chi:
            raise ValueError("dominance at the chromatic number must equal it")
        if not all(0 <= v <= t for t, v in enumerate(self.values, self.chi)):
            raise ValueError("dominance entries lie between 0 and t")


@dataclass(frozen=True)
class PivotReport:
    m_value: int
    dense: frozenset
    pivot: int | None


@dataclass(frozen=True)
class Coloring:
    assignment: tuple
    t: int


@dataclass(frozen=True)
class BVerdict:
    is_b_coloring: bool
    dominant_classes: frozenset
    witnesses: tuple


@dataclass(frozen=True)
class RootedTree:
    graph: object
    root: int
    anchor: int
    parent: tuple
    children: tuple
    order: tuple
    subtree_size: tuple


@dataclass(frozen=True)
class SmmTables:
    tree: object
    values: dict
    records: dict


@dataclass(frozen=True)
class DeficiencyTables:
    tree: object
    kernel: object
    packed: dict


@dataclass(frozen=True)
class OracleBudget:
    max_n: int = 16
    max_states: int = 10**8

    def __post_init__(self) -> None:
        if self.max_n <= 0 or self.max_states <= 0:
            raise RangeError("budget caps must be positive")


@dataclass(frozen=True)
class Gadget:
    host: object
    origin_n: int
    origin_edges: tuple
    block_ids: tuple


@dataclass(frozen=True)
class ReductionReport:
    min_maximal: int
    min_smm_host: int
    origin_edges: int
    identity_holds: bool


RECORDS = {
    Graph: graph.Graph,
    TcLeaf: graph.TcLeaf,
    TcUnion: graph.TcUnion,
    TcJoin: graph.TcJoin,
    DominanceVector: dominance.DominanceVector,
    PivotReport: dominance.PivotReport,
    Coloring: bcoloring.Coloring,
    BVerdict: bcoloring.BVerdict,
    RootedTree: tree_dp.RootedTree,
    SmmTables: tree_dp.SmmTables,
    DeficiencyTables: tree_dp.DeficiencyTables,
    OracleBudget: oracle.OracleBudget,
    Gadget: reduction.Gadget,
    ReductionReport: reduction.ReductionReport,
}
EXPRESSIONS = (TcLeaf, TcUnion, TcJoin)

P2 = graph.Graph(2, ((1,), (0,)))
P3 = graph.Graph(3, ((1,), (0, 2), (1,)))
POINT = graph.Graph(1, ((),))
LEAVES = (graph.TcLeaf(P2, (0, 1)), graph.TcLeaf(POINT, (2,), co=True), graph.TcLeaf(POINT, (3,)))
ROOTED = tree_dp.RootedTree(P3, 0, 1, (-1, 0, 1), ((1,), (2,), ()), (2, 1), (3, 2, 1))

# per reference class, keyword arguments of sample instances; equal samples
# of one class, and samples of two classes with equal fields, are there on
# purpose
SAMPLES = {
    Graph: [dict(n=2, adj=((1,), (0,))), dict(n=2, adj=((1,), (0,))), dict(n=2, adj=((), ())),
            dict(n=0, adj=()), dict(n=3, adj=P3.adj)],
    TcLeaf: [dict(tree=P2, vertices=(0, 1)), dict(tree=P2, vertices=(0, 1), co=False),
             dict(tree=P2, vertices=(0, 1), co=True), dict(tree=POINT, vertices=(5,)),
             dict(tree=P3, vertices=(2, 0, 1))],
    TcUnion: [dict(children=LEAVES[:2]), dict(children=LEAVES[:2]), dict(children=LEAVES)],
    TcJoin: [dict(children=LEAVES[:2]), dict(children=LEAVES[1:])],
    DominanceVector: [dict(chi=2, values=(2, 2, 1, 0)), dict(chi=2, values=(2, 2, 1, 0)),
                      dict(chi=1, values=(1,)), dict(chi=3, values=(3, 4, 5, 0, 6))],
    PivotReport: [dict(m_value=3, dense=frozenset({0, 4}), pivot=None),
                  dict(m_value=3, dense=frozenset({4, 0}), pivot=None),
                  dict(m_value=3, dense=frozenset({0, 4}), pivot=2)],
    Coloring: [dict(assignment=(0, 1, 0), t=2), dict(assignment=(0, 1, 0), t=2),
               dict(assignment=(0, 1, 2), t=3), dict(assignment=(), t=0)],
    BVerdict: [dict(is_b_coloring=True, dominant_classes=frozenset({0, 1}), witnesses=((0, 1), (1, 0))),
               dict(is_b_coloring=False, dominant_classes=frozenset(), witnesses=())],
    RootedTree: [dict(graph=P3, root=0, anchor=1, parent=(-1, 0, 1), children=((1,), (2,), ()),
                      order=(2, 1), subtree_size=(3, 2, 1)),
                 dict(graph=P3, root=2, anchor=1, parent=(1, 2, -1), children=((), (0,), (1,)),
                      order=(0, 1), subtree_size=(1, 2, 3))],
    SmmTables: [dict(tree=ROOTED, values={1: (0.0, 1.0, 2.0, 3.0, 4.0)}, records={1: (0, 0, 0, 0, 0)}),
                dict(tree=ROOTED, values={}, records={})],
    DeficiencyTables: [dict(tree=ROOTED, kernel="lanes", packed={1: (5, 6)}),
                       dict(tree=ROOTED, kernel="lanes", packed={}),
                       dict(tree=ROOTED, kernel={}, packed={})],  # fields of an SmmTables sample
    OracleBudget: [dict(), dict(max_n=16, max_states=10**8), dict(max_n=5), dict(max_states=7),
                   dict(max_n=3, max_states=9)],
    Gadget: [dict(host=P2, origin_n=2, origin_edges=((0, 1),), block_ids=(tuple(range(2, 10)),)),
             dict(host=P3, origin_n=2, origin_edges=(), block_ids=())],
    ReductionReport: [dict(min_maximal=1, min_smm_host=4, origin_edges=1, identity_holds=True),
                      dict(min_maximal=1, min_smm_host=5, origin_edges=1, identity_holds=False)],
}

# arguments that every reference's check refuses, with the error it raises
REFUSED = {
    Graph: [dict(n=2, adj=((),)), dict(n=-1, adj=())],
    TcLeaf: [dict(tree=graph.Graph(2, ((), ())), vertices=(0, 1)), dict(tree=P2, vertices=(0,))],
    TcUnion: [dict(children=LEAVES[:1]), dict(children=())],
    TcJoin: [dict(children=LEAVES[1:2])],
    DominanceVector: [dict(chi=2, values=()), dict(chi=2, values=(3, 1)), dict(chi=2, values=(2, -1)),
                      dict(chi=2, values=(2, 3, 5)), dict(chi=1, values=(1, 2, 3, 4, 6))],
    OracleBudget: [dict(max_n=0), dict(max_states=-1)],
}


def _pairs():
    """Every sample as (record, reference), in one list across classes."""
    return [(RECORDS[ref](**kw), ref(**kw)) for ref, samples in SAMPLES.items() for kw in samples]


def _hash(x: object):
    try:
        return hash(x)
    except TypeError as exc:  # a record holding a dict is unhashable, as the dataclass was
        return str(exc)


def test_every_record_has_samples_and_no_dataclass_machinery():
    assert set(SAMPLES) == set(RECORDS)
    for record in RECORDS.values():
        assert issubclass(record, graph._Record)
        assert not hasattr(record, "__dataclass_fields__")


def test_records_repr_and_hash_as_the_dataclasses():
    for record, ref in _pairs():
        assert repr(record) == repr(ref)
        if type(ref) in EXPRESSIONS:
            continue
        assert _hash(record) == _hash(ref)


def test_records_compare_as_the_dataclasses_also_across_classes():
    pairs = _pairs()
    for record_a, ref_a in pairs:
        for record_b, ref_b in pairs:
            assert (record_a == record_b) is (ref_a == ref_b), (ref_a, ref_b)
            assert (record_a != record_b) is (ref_a != ref_b)
            if record_a == record_b:
                assert _hash(record_a) == _hash(record_b)
        assert record_a != ref_a  # a record never equals its dataclass twin
        assert record_a != tuple(getattr(record_a, f) for f in record_a._fields)


def test_records_construct_by_keyword_position_and_default():
    for ref, samples in SAMPLES.items():
        record = RECORDS[ref]
        names = [f.name for f in fields(ref) if f.init]
        assert list(record._fields) == names
        for kw in samples:
            by_keyword = record(**kw)
            full = {f: getattr(ref(**kw), f) for f in names}  # defaults filled in
            assert record(*full.values()) == by_keyword == record(**full)
            assert {f: getattr(by_keyword, f) for f in names} == full
    assert oracle.OracleBudget() == oracle.OracleBudget(16, 10**8)
    assert graph.TcLeaf(P2, (0, 1)).co is False


def test_records_refuse_what_the_dataclasses_refused():
    for ref, samples in REFUSED.items():
        for kw in samples:
            with pytest.raises(Exception) as expected:
                ref(**kw)
            with pytest.raises(expected.type) as got:
                RECORDS[ref](**kw)
            assert str(got.value) == str(expected.value)


def test_record_fields_cannot_be_assigned_or_deleted():
    for record, ref in _pairs():
        for name in (*record._fields, "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert repr(record) == repr(ref)  # unchanged by the attempts


def test_derived_span_and_cached_views_stay_out_of_comparisons():
    union = graph.TcUnion(LEAVES)
    assert union.span == TcUnion(LEAVES).span == 4
    assert "span" not in repr(union)
    g, h = graph.Graph(3, P3.adj), graph.Graph(3, P3.adj)
    assert g.edges and g.degrees and "edges" in vars(g) and "edges" not in vars(h)
    assert g == h and hash(g) == hash(h) and repr(g) == repr(h)
    tables = tree_dp.deficiency_tables(P3)
    assert tables.values and "values" in vars(tables)
    assert tables == tree_dp.DeficiencyTables(tables.tree, tables.kernel, tables.packed)
