import json

import pytest

from tubtilt import serialize
from tubtilt.connect import connect_to_canonical, random_walk, verify_path
from tubtilt.errors import ValidationError
from tubtilt.slopes import INF, Slope
from tubtilt.tilting import is_tilting, make_tilting, t_can
from tubtilt.tubes import chart_for, line_bundle_obj
from tubtilt.weights import c_gen, l_zero, omega, x_gen


def test_exc_round_trip(ctx2222):
    obj = line_bundle_obj(ctx2222, x_gen(ctx2222.weights, 2))
    data = serialize.exc_to_dict(obj)
    assert data["class"] == list(obj.cls.vec)
    assert data["slope"] == "1"
    assert serialize.exc_from_dict(ctx2222, data) == obj


def test_exc_rejects_tampered_fields(ctx2222):
    obj = line_bundle_obj(ctx2222, l_zero(ctx2222.weights))
    data = serialize.exc_to_dict(obj)
    for field, value in (
        ("socle", (data["socle"] + 1) % 2),
        # equal to the recomputed integers in Python, but not JSON integers
        ("len", float(data["len"])),
        ("socle", bool(data["socle"])),
        ("orbit", float(data["orbit"])),
    ):
        with pytest.raises(ValidationError, match=f"stored {field}="):
            serialize.exc_from_dict(ctx2222, dict(data, **{field: value}))


def test_exc_rejects_bad_class(ctx2222):
    with pytest.raises(ValidationError):
        serialize.exc_from_dict(ctx2222, {"class": [0, 0, 0, 0, 0]})
    with pytest.raises(ValidationError):
        serialize.exc_from_dict(ctx2222, {"class": [0.5, 0, 0, 0, 0, 1]})


def test_tilting_round_trip(ctx2222):
    tc = t_can(ctx2222)
    data = serialize.tilting_to_dict(ctx2222, tc)
    ctx2, again = serialize.tilting_from_dict(data)
    assert ctx2.weights == ctx2222.weights
    assert again.class_key() == tc.class_key()
    # also against the provided context
    _, again2 = serialize.tilting_from_dict(data, ctx2222)
    assert again2 == tc


def test_tilting_weights_mismatch(ctx2222, ctx236):
    data = serialize.tilting_to_dict(ctx2222, t_can(ctx2222))
    with pytest.raises(ValidationError):
        serialize.tilting_from_dict(data, ctx236)


def _non_tilting_record(ctx2222):
    # T_can of (2,2,2,2) with O(c) replaced by O(omega): Ext^1(O(omega), O) != 0
    w = ctx2222.weights
    oc = line_bundle_obj(ctx2222, c_gen(w))
    summands = [
        line_bundle_obj(ctx2222, omega(w)) if s == oc else s
        for s in t_can(ctx2222).summands
    ]
    return serialize.tilting_to_dict(ctx2222, make_tilting(ctx2222, summands))


def test_non_tilting_record_rejected(ctx2222):
    data = _non_tilting_record(ctx2222)
    with pytest.raises(ValidationError, match="not a tilting object"):
        serialize.tilting_from_dict(data, ctx2222)
    _, objs = serialize.summands_from_dict(data, ctx2222)
    assert not is_tilting(ctx2222, objs)


def test_path_round_trip(ctx2222):
    path = connect_to_canonical(ctx2222, t_can(ctx2222, x_gen(ctx2222.weights, 3)))
    data = serialize.path_to_dict(ctx2222, path)
    assert data["bundleOnly"] is True
    again = serialize.path_from_dict(ctx2222, data)
    assert verify_path(ctx2222, again)
    assert [n.class_key() for n in again.nodes] == [n.class_key() for n in path.nodes]


def test_path_record_rejected_unless_verified(ctx2222, caplog):
    data = serialize.path_to_dict(ctx2222, random_walk(ctx2222, 4, seed=3))
    assert len(serialize.path_from_dict(ctx2222, data).events) == 4
    # a node whose summands are not tilting
    bad = {"nodes": [_non_tilting_record(ctx2222)], "events": [], "bundleOnly": True}
    with pytest.raises(ValidationError, match="not a verified mutation path"):
        serialize.path_from_dict(ctx2222, bad)
    assert "node 0 is not tilting" in caplog.text
    # an event that does not match its nodes
    bad = json.loads(json.dumps(data))
    bad["events"][1]["added"] = bad["events"][1]["removed"]
    with pytest.raises(ValidationError, match="not a verified mutation path"):
        serialize.path_from_dict(ctx2222, bad)
    assert "event 1 does not match the node difference" in caplog.text
    # an event index out of range: naming the removed summand from the
    # end, and past the last summand
    k = data["events"][0]["k"]
    for index in (k - ctx2222.n, k + ctx2222.n):
        caplog.clear()
        bad = json.loads(json.dumps(data))
        bad["events"][0]["k"] = index
        with pytest.raises(ValidationError, match="not a verified mutation path"):
            serialize.path_from_dict(ctx2222, bad)
        assert "event 0 records a wrong index" in caplog.text


def test_records_with_non_list_fields_rejected(ctx2222):
    data = serialize.path_to_dict(ctx2222, random_walk(ctx2222, 2, seed=3))
    node = data["nodes"][0]
    for summands in (3, None, "abc", {"class": node["summands"][0]["class"]}):
        bad_node = dict(node, summands=summands)
        with pytest.raises(ValidationError, match="'summands' must be a list"):
            serialize.summands_from_dict(bad_node, ctx2222)
        with pytest.raises(ValidationError, match="'summands' must be a list"):
            serialize.path_from_dict(ctx2222, dict(data, nodes=[bad_node]))
    for nodes in (3, None, node):
        with pytest.raises(ValidationError, match="'nodes', a list"):
            serialize.path_from_dict(ctx2222, dict(data, nodes=nodes))
    with pytest.raises(ValidationError, match="'events' must be a list"):
        serialize.path_from_dict(ctx2222, dict(data, events=7))


def test_path_record_with_a_flipped_direction_rejected(any_ctx, caplog):
    data = serialize.path_to_dict(any_ctx, random_walk(any_ctx, 6, seed=5, bundle_only=True))
    assert len(data["events"]) == 6
    for i in range(6):
        bad = json.loads(json.dumps(data))
        bad["events"][i]["dir"] = {"L": "R", "R": "L"}[bad["events"][i]["dir"]]
        with pytest.raises(ValidationError, match="not a verified mutation path"):
            serialize.path_from_dict(any_ctx, bad)
        assert f"event {i} records a wrong direction" in caplog.text


def test_path_record_with_a_flipped_bundle_flag_rejected(any_ctx):
    # a bundle walk marked false, and a walk through torsion marked true
    for bundle_only in (True, False):
        walk = random_walk(any_ctx, 6, seed=5, bundle_only=bundle_only)
        assert walk.bundle_only is bundle_only
        data = serialize.path_to_dict(any_ctx, walk)
        assert data["bundleOnly"] is bundle_only
        assert serialize.path_from_dict(any_ctx, data).bundle_only is bundle_only
        bad = dict(data, bundleOnly=not bundle_only)
        with pytest.raises(ValidationError, match="bundleOnly disagrees"):
            serialize.path_from_dict(any_ctx, bad)
        # truthy and falsy values that are not JSON booleans, either way
        for flag in ("false", "no", "true", 0, 1, None, []):
            with pytest.raises(ValidationError, match="'bundleOnly' must be a JSON boolean"):
                serialize.path_from_dict(any_ctx, dict(data, bundleOnly=flag))


def test_event_wire_format(ctx2222):
    path = random_walk(ctx2222, 1, seed=3)
    ev = serialize.event_to_dict(path.events[0])
    assert set(ev) == {"k", "removed", "added", "dir"}
    assert ev["dir"] in ("L", "R")
    del ev["k"]
    with pytest.raises(ValidationError):
        serialize.event_from_dict(ctx2222, ev)


@pytest.mark.parametrize("k", [1.9, True, "1", "\u0661", "x", None, [1]])
def test_path_record_with_a_non_integer_event_index_rejected(ctx2222, k):
    # int() would read 1.9, True, "1" and the Arabic-Indic digit one as 1
    data = serialize.path_to_dict(ctx2222, random_walk(ctx2222, 3, seed=3))
    assert serialize.path_from_dict(ctx2222, data).events[0].index == 1
    data["events"][0]["k"] = k
    with pytest.raises(ValidationError, match="'k' must be an integer"):
        serialize.path_from_dict(ctx2222, data)


def test_chart_cache_round_trip(ctx2222, tmp_path):
    chart_for(ctx2222, Slope(1, 2))
    chart_for(ctx2222, INF)
    written = serialize.save_chart_cache(ctx2222, str(tmp_path))
    assert written >= 2
    from tubtilt.k0 import build_context
    from tubtilt.weights import make_weights

    fresh = build_context(make_weights((2, 2, 2, 2)))
    loaded = serialize.load_chart_cache(fresh, str(tmp_path))
    assert loaded == written
    assert fresh._charts[Slope(1, 2)].orbits == ctx2222._charts[Slope(1, 2)].orbits


def test_chart_cache_skips_corrupt_entries(ctx2222, tmp_path):
    chart_for(ctx2222, Slope(1, 3))
    serialize.save_chart_cache(ctx2222, str(tmp_path))
    target = next(tmp_path.glob("chart_2-2-2-2_q1_3.json"))
    data = json.loads(target.read_text())
    data["orbits"][0], data["orbits"][1] = (
        [data["orbits"][0][0], data["orbits"][1][1]],
        [data["orbits"][1][0], data["orbits"][0][1]],
    )
    target.write_text(json.dumps(data))
    from tubtilt.k0 import build_context
    from tubtilt.weights import make_weights

    fresh = build_context(make_weights((2, 2, 2, 2)))
    serialize.load_chart_cache(fresh, str(tmp_path))
    assert Slope(1, 3) not in fresh._charts  # rejected, will be rebuilt


def test_canonical_json_is_deterministic(ctx2222):
    tc = t_can(ctx2222)
    a = serialize.dumps(serialize.tilting_to_dict(ctx2222, tc))
    b = serialize.dumps(serialize.tilting_to_dict(ctx2222, tc))
    assert a == b
    assert "\n" not in a
