"""Module-level caches stay bounded and hand out nothing a caller can spoil.

Fan checks, star fans and Cox rings are shared between equal inputs through
value-keyed ``lru_cache``s.  Each must have a finite bound, must stay within
it however many distinct inputs pass through, and must give every caller an
answer that mutating a previous answer cannot change.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil

import coxmap
from coxmap import coxring as coxring_module
from coxmap import fan as fan_module
from coxmap.cli import main
from coxmap.coxring import build_cox_ring
from coxmap.fan import Fan, star_fan, validate_fan


def _coxmap_modules():
    yield coxmap
    for info in pkgutil.iter_modules(coxmap.__path__, "coxmap."):
        yield importlib.import_module(info.name)


def test_every_cache_is_bounded():
    caches = []
    for module in _coxmap_modules():
        owners = [module] + [c for c in vars(module).values() if inspect.isclass(c)]
        for owner in owners:
            for name, value in vars(owner).items():
                if hasattr(value, "cache_info"):
                    caches.append(name)
                    assert value.cache_info().maxsize is not None, (module.__name__, name)
    assert {"_fan_violations", "_star_fan", "_cox_ring"} <= set(caches)


def _cones(count):
    """Distinct two-dimensional affine fans, one cone each."""
    return [Fan.make(2, [(1, 0), (k, 1)], [{0, 1}]) for k in range(count)]


def test_fan_check_cache_is_bounded():
    bound = fan_module._fan_violations.cache_info().maxsize
    for fan in _cones(bound + 20):
        assert validate_fan(fan) == []
    assert fan_module._fan_violations.cache_info().currsize <= bound


def test_star_fan_cache_is_bounded():
    bound = fan_module._star_fan.cache_info().maxsize
    for fan in _cones(bound + 20):
        assert star_fan(fan, fan.cone({1})).lattice.rank == 1
    assert fan_module._star_fan.cache_info().currsize <= bound


def test_cox_ring_cache_is_bounded():
    bound = coxring_module._cox_ring.cache_info().maxsize
    for fan in _cones(bound + 20):
        assert build_cox_ring(fan, ["a", "b"]).nvars == 2
    assert coxring_module._cox_ring.cache_info().currsize <= bound


def test_equal_inputs_share_one_ring_and_star_fan():
    a = Fan.make(2, [(1, 0), (0, 1), (-1, -1)], [{0, 1}, {1, 2}, {0, 2}])
    b = Fan.make(2, [(1, 0), (0, 1), (-1, -1)], [{0, 1}, {1, 2}, {0, 2}])
    assert a is not b
    assert build_cox_ring(a, ["x", "y", "z"]) is build_cox_ring(b, ("x", "y", "z"))
    assert star_fan(a, a.cone({2})) is star_fan(b, b.cone({2}))


def test_fan_check_answers_are_not_shared_lists():
    broken = Fan.make(2, [(1, 0), (0, 1), (1, 1)], [{0, 1}, {0, 2}])
    first = validate_fan(broken)
    assert first
    expected = list(first)
    first.clear()
    first.append("spoiled")
    assert validate_fan(broken) == expected
    clean = Fan.make(1, [(1,), (-1,)], [{0}, {1}])
    validate_fan(clean).append("spoiled")
    assert validate_fan(clean) == []


def test_invalid_fan_is_refused_on_every_decode(tmp_path, capsys):
    broken = {"dim": 2, "rays": [[1, 0], [0, 1], [1, 1]],
              "max_cones": [[0, 1], [0, 2]], "variables": ["x", "y", "z"]}
    line = {"dim": 1, "rays": [[1]], "max_cones": [[0]], "variables": ["t"]}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"source": broken, "target": line, "images": [
        {"factors": [["x", "1"]]}]}))
    for _ in range(2):
        assert main(["check", str(path)]) == 2
        assert "cones 0 and 1" in capsys.readouterr().err
