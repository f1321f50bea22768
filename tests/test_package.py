import json
import os
import subprocess
import sys

import pytest

import tubtilt
from tubtilt import k0, roots, tubes
from tubtilt.k0 import build_context
from tubtilt.slopes import INF, ZERO, Slope
from tubtilt.weights import TUBULAR_TYPES, make_weights


def test_every_public_name_is_its_submodules_object():
    for name in tubtilt.__all__:
        module = tubtilt._EXPORTS[name]
        assert getattr(tubtilt, name) is getattr(getattr(tubtilt, module), name), name


def test_dir_lists_all_and_the_submodules():
    listed = dir(tubtilt)
    assert set(tubtilt.__all__) <= set(listed)
    assert {"connect", "tilting", "roots", "__version__"} <= set(listed)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        tubtilt.no_such_name
    for module in (k0, tubes):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            module.no_such_name


def test_a_plain_import_loads_no_submodule_until_one_is_used():
    src = os.path.dirname(os.path.dirname(os.path.abspath(tubtilt.__file__)))
    probe = """if True:
        import json, sys
        import tubtilt

        def loaded():
            return sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("tubtilt."))

        seen = [loaded()]
        tubtilt.tubes
        seen.append(loaded())
        ctx = tubtilt.build_context(tubtilt.make_weights((2, 2, 2, 2)))
        path = tubtilt.connect.random_walk(ctx, 2, 1)
        seen.append([len(path.events), tubtilt.verify_path is tubtilt.connect.verify_path])
        print(json.dumps(seen))
    """
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    plain, with_tubes, used = json.loads(proc.stdout)
    assert plain == []
    # tubes and what it imports; the root oracle waits for its first use
    assert with_tubes == ["errors", "intmat", "k0", "records", "slopes", "tubes", "weights"]
    assert used == [2, True]


def test_the_root_oracle_is_reexported_and_gives_the_moved_charts():
    from tubtilt.k0 import enumerate_roots_at
    from tubtilt.tubes import build_chart

    assert enumerate_roots_at is roots.enumerate_roots_at is tubes.enumerate_roots_at
    assert build_chart is roots.build_chart is tubtilt.build_chart
    for ws in TUBULAR_TYPES:
        ctx = build_context(make_weights(ws))
        for q in (ZERO, INF, Slope(1, 2), Slope(-7, 3)):
            chart = tubes.chart_for(ctx, q)
            assert build_chart(ctx, q) == chart, (ws, q)
            windows = {cls.vec for *_, cls in chart.windows()}
            assert {c.vec for c in enumerate_roots_at(ctx, q, ctx.p)} == windows, (ws, q)
