"""Record semantics of the value types (`tubtilt.records`): equality,
hash, repr, immutability, pickling and copying, keyword construction."""

import copy
import pickle

import pytest

from tubtilt.connect import FareyStep, MutationPath, SearchBudget, random_walk
from tubtilt.exprs import (
    ChartCoordExpr,
    LExprData,
    LineBundleExpr,
    MuExpr,
    RawClassExpr,
    TcanExpr,
    parse_expr,
)
from tubtilt.k0 import K0Class
from tubtilt.records import Record
from tubtilt.slopes import Slope
from tubtilt.tilting import MutationEvent, TiltingObject, mutate, t_can
from tubtilt.tubes import ExcObject, Window, _tube_shifts, chart_for
from tubtilt.verify import CheckResult
from tubtilt.weights import x_gen

E = ExcObject(K0Class((1, 0, -2)), Slope(-1, 2), 0, 1, 2)
F = ExcObject(K0Class((0, 1, 0)), Slope(1, 0), 1, 0, 1)
E_TEXT = (
    "ExcObject(cls=K0Class(vec=(1, 0, -2)), slope=Slope(num=-1, den=2), orbit=0, socle=1, len=2)"
)
F_TEXT = (
    "ExcObject(cls=K0Class(vec=(0, 1, 0)), slope=Slope(num=1, den=0), orbit=1, socle=0, len=1)"
)


def _values(ctx):
    """One instance of every hashable value type, with its field tuple."""
    t = t_can(ctx)
    _, ev = mutate(ctx, t, 0)
    chart = chart_for(ctx, Slope(1, 2))
    shift = _tube_shifts(ctx)[0]
    elt = x_gen(ctx.weights, 1)
    mu = parse_expr("mu(Tcan(x1 + c), 2)")
    coord = parse_expr("E(1/2; t=0; s=1; l=1)")
    return [
        (Slope(1, 2), (1, 2)),
        (t.summands[0].cls, (t.summands[0].cls.vec,)),
        (Window(1, 2), (1, 2)),
        (chart, (chart.slope, chart.orbits)),
        (E, (E.cls, E.slope, 0, 1, 2)),
        (shift, (shift.orbit, shift.left, shift.right, shift.drop)),
        (t, (t.summands,)),
        (ev, (ev.index, ev.removed, ev.added, ev.direction)),
        (FareyStep(1, 2, 1, 1), (1, 2, 1, 1)),
        (SearchBudget(10, 0.5), (10, 0.5)),
        (ctx.weights, (ctx.weights.weights, ctx.weights.p, ctx.weights.n, ctx.weights.genus)),
        (elt, (elt.data, elt.coeffs, elt.c)),
        (mu, (mu.inner, 2)),
        (mu.inner, (mu.inner.twist,)),
        (mu.inner.twist, (((0, 1),), 1)),
        (coord, (Slope(1, 2), 0, 1, 1)),
        (parse_expr("L(x1)"), (LExprData(((0, 1),), 0),)),
        (parse_expr("K[1, 0, 0, 0, 0, 0]"), ((1, 0, 0, 0, 0, 0),)),
        (CheckResult("name", False, "detail"), ("name", False, "detail")),
    ]


def test_every_value_type_is_covered(ctx2222):
    covered = {type(x) for x, _ in _values(ctx2222)} | {MutationPath}
    assert covered == set(Record.__subclasses__())


def test_hash_is_the_hash_of_the_field_tuple(ctx2222):
    for x, fields in _values(ctx2222):
        assert hash(x) == hash(fields), type(x)


def test_equal_iff_same_type_and_equal_fields(ctx2222):
    for x, fields in _values(ctx2222):
        assert x == copy.copy(x) and not x != copy.copy(x)
        assert x != fields
    assert Slope(1, 2) != (1, 2)
    assert K0Class((1, 0)) != (1, 0)
    assert K0Class((1, 0)) != K0Class((0, 1))
    assert Window(1, 2) != LExprData(1, 2)  # same field values, other type


def test_pickle_and_copy_round_trip(ctx2222):
    for x, _ in _values(ctx2222):
        for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert type(y) is type(x) and y == x and hash(y) == hash(x)
    t = t_can(ctx2222)
    assert pickle.loads(pickle.dumps(t)).class_key() == t.class_key()


def test_fields_cannot_be_assigned_or_deleted(ctx2222):
    for x, _ in _values(ctx2222):
        name = x._fields[0]
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(x, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(x, name)
        with pytest.raises(AttributeError):
            x.unknown = 1
        assert not hasattr(x, "__dict__")


def test_repr_text():
    assert repr(Slope(2, -4)) == "Slope(num=-1, den=2)"
    assert repr(Slope(5, 0)) == "Slope(num=1, den=0)"
    assert repr(K0Class((1, 0, -2))) == "K0Class(vec=(1, 0, -2))"
    assert repr(E) == E_TEXT
    assert repr(TiltingObject((E, F))) == f"TiltingObject(summands=({E_TEXT}, {F_TEXT}))"
    assert repr(MutationEvent(3, E, F, "L")) == (
        f"MutationEvent(index=3, removed={E_TEXT}, added={F_TEXT}, direction='L')"
    )
    assert repr(SearchBudget()) == "SearchBudget(max_nodes=400000, max_seconds=None)"
    assert repr(FareyStep(1, 2, 1, 1)) == "FareyStep(a=1, b=2, c=1, d=1)"
    assert repr(MutationPath([], [])) == "MutationPath(nodes=[], events=[])"
    assert repr(CheckResult("x", True)) == "CheckResult(name='x', ok=True, detail='')"


def test_keyword_construction_and_defaults():
    assert Slope(num=2, den=-4) == Slope(-1, 2)
    assert MutationEvent(index=3, removed=E, added=F, direction="R") == MutationEvent(3, E, F, "R")
    assert FareyStep(a=1, b=2, c=1, d=1) == FareyStep(1, 2, 1, 1)
    assert SearchBudget() == SearchBudget(max_nodes=400_000, max_seconds=None)
    assert SearchBudget(max_seconds=2.0) == SearchBudget(400_000, 2.0)
    assert CheckResult("x", True) == CheckResult(name="x", ok=True, detail="")
    assert TcanExpr(twist=None) == TcanExpr(None)
    assert ChartCoordExpr(slope=Slope(1, 2), orbit=0, socle=1, len=1) == parse_expr(
        "E(1/2; t=0; s=1; l=1)"
    )
    assert LineBundleExpr(elt=LExprData(xterms=((0, 1),), c=0)) == parse_expr("L(x1)")
    assert RawClassExpr(entries=(1, 0)) == parse_expr("K[1, 0]")
    assert MuExpr(inner=TcanExpr(None), index=2) == parse_expr("mu(Tcan, 2)")


def test_validation_messages():
    with pytest.raises(ValueError, match=r"invalid Farey step FareyStep\(a=1, b=2, c=1, d=2\)"):
        FareyStep(1, 2, 1, 2)
    with pytest.raises(ValueError, match="max_nodes must be an integer >= 1, got 0"):
        SearchBudget(0)
    with pytest.raises(ValueError, match="max_seconds must be positive and finite"):
        SearchBudget(max_seconds=0.0)


def test_tilting_object_key_is_derived():
    t = TiltingObject((E, F))
    assert t.class_key() == ((1, 0, -2), (0, 1, 0))
    assert t._fields == ("summands",)
    with pytest.raises(AttributeError, match="cannot assign to field '_key'"):
        t._key = ()


def test_mutation_path_is_mutable_and_unhashable(ctx2222):
    path = random_walk(ctx2222, 2, 1)
    same = MutationPath(list(path.nodes), list(path.events))
    assert same == path and same is not path
    with pytest.raises(TypeError):
        hash(path)
    same.nodes = []
    del same.events
    assert not hasattr(same, "events") and not hasattr(same, "__dict__")
    copied = copy.copy(path)
    assert copied == path and copied.nodes is path.nodes
    assert pickle.loads(pickle.dumps(path)) == path
