"""Module-level caches stay bounded and hand out nothing a caller can spoil.

``Fan.make`` interns fans in a bounded table, and fan checks and star fans
live on the fan, so they go when the table lets the fan go; Cox rings are
shared through a value-keyed ``lru_cache``.  Each cache must have a finite
bound, must stay within it however many distinct inputs pass through, and
must give every caller an answer that mutating a previous answer cannot
change.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import json
import pkgutil
import weakref

import coxmap
from coxmap import coxring as coxring_module
from coxmap import fan as fan_module
from coxmap.cli import main
from coxmap.coxring import build_cox_ring
from coxmap.fan import Cone, Fan, star_fan, validate_fan


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
    assert set(caches) == {
        "_interned", "_cox_ring", "_degree_cached", "_invariant_exponents", "_factorize"
    }


def _cones(count):
    """Distinct two-dimensional affine fans, one cone each, unlike the fans
    built elsewhere in the suite."""
    return [Fan.make(2, [(1, 0), (k, 1)], [{0, 1}]) for k in range(100, 100 + count)]


def _kept_after(use):
    """Passes each of bound + 20 new fans to ``use``; returns the intern
    table's bound and how many of those fans are still alive once nothing
    but coxmap refers to them."""
    bound = fan_module._interned.cache_info().maxsize
    refs = []
    for fan in _cones(bound + 20):
        use(fan)
        refs.append(weakref.ref(fan))
    del fan
    gc.collect()
    return bound, sum(ref() is not None for ref in refs)


def test_make_interns_equal_fans():
    a = Fan.make(2, [(1, 0), (0, 1), (-1, -1)], [{0, 1}, {1, 2}, {0, 2}])
    assert Fan.make(2.0, [[1, 0], [0, 1], [-1, -1]], [[1, 0], [2, 1], [2, 0]]) is a
    direct = Fan(a.dim, a.rays, a.max_cones)
    assert direct == a and direct is not a
    bound, kept = _kept_after(lambda fan: None)
    assert fan_module._interned.cache_info().currsize <= bound
    assert kept <= bound
    fan_module._interned.cache_clear()
    b = Fan.make(2, [(1, 0), (0, 1), (-1, -1)], [{0, 1}, {1, 2}, {0, 2}])
    assert b == a and b is not a


def test_fan_check_cache_is_bounded():
    def check(fan):
        assert validate_fan(fan) == []

    bound, kept = _kept_after(check)
    assert kept <= bound


def test_star_fan_cache_is_bounded():
    # Star fans live on their fan, at most one per cone of it, so those alive
    # are bounded by the fans alive, which are at most the intern table's
    # bound plus the fans that Cox rings in ``_cox_ring`` hold, times the
    # cones per fan.  No Cox ring is built here.
    cones = [frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})]
    stars = []

    def star(fan):
        for _ in range(3):
            for indices in cones:
                built = star_fan(fan, fan.cone(indices))
                assert built is star_fan(fan, fan.cone(indices))
                assert built.lattice.rank == 2 - len(indices)
                stars.append(weakref.ref(built))
        assert len(fan._stars) == len(cones)

    bound, kept = _kept_after(star)
    assert kept <= bound
    assert len({id(ref()) for ref in stars if ref() is not None}) <= len(cones) * bound

    # a ray set inside a maximal cone that spans no cone of the fan gets a
    # star fan, but the fan does not keep it
    square = Fan.make(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], [{0, 1, 2, 3}])
    diagonal = Cone(square, frozenset({0, 2}))
    assert not square.is_face(diagonal.indices)
    first = star_fan(square, diagonal)
    assert star_fan(square, diagonal) == first
    assert star_fan(square, diagonal) is not first
    assert not square._stars


def test_cox_ring_cache_is_bounded():
    bound = coxring_module._cox_ring.cache_info().maxsize
    for fan in _cones(bound + 20):
        assert build_cox_ring(fan, ["a", "b"]).nvars == 2
    assert coxring_module._cox_ring.cache_info().currsize <= bound


def test_equal_inputs_share_one_ring_and_star_fan():
    a = Fan.make(2, [(1, 0), (0, 1), (-1, -1)], [{0, 1}, {1, 2}, {0, 2}])
    b = Fan.make(2, [(1, 0), (0, 1), (-1, -1)], [{0, 1}, {1, 2}, {0, 2}])
    assert a is b
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
