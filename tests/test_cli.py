import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from coxmap.cli import (
    SchemaError,
    description_from_json,
    description_to_json,
    main,
    section_from_json,
    section_to_json,
    unit_from_json,
    unit_to_json,
)
from coxmap.descriptions import CoxDescription
from coxmap.sections import FactoredSection, RadicalScalar

from varieties import ring_p2

P2 = {
    "dim": 2,
    "rays": [[1, 0], [0, 1], [-1, -1]],
    "max_cones": [[0, 1], [1, 2], [0, 2]],
    "variables": ["x0", "x1", "x2"],
}
P1 = {
    "dim": 1,
    "rays": [[1], [-1]],
    "max_cones": [[0], [1]],
    "variables": ["u", "v"],
}
P1XP1 = {
    "dim": 2,
    "rays": [[1, 0], [-1, 0], [0, 1], [0, -1]],
    "max_cones": [[0, 2], [0, 3], [1, 2], [1, 3]],
    "variables": ["x0", "x1", "y0", "y1"],
}
P3 = {
    "dim": 3,
    "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
    "max_cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
    "variables": ["z0", "z1", "z2", "z3"],
}
LINE = {"dim": 1, "rays": [[1]], "max_cones": [[0]], "variables": ["t"]}
QUARTER = {
    "dim": 2,
    "rays": [[1, 0], [1, 2]],
    "max_cones": [[0, 1]],
    "variables": ["y1", "y2"],
}

CREMONA = {
    "source": P2,
    "target": P2,
    "images": [
        {"factors": [["x1", "1"], ["x2", "1"]]},
        {"factors": [["x0", "1"], ["x2", "1"]]},
        {"factors": [["x0", "1"], ["x1", "1"]]},
    ],
}
COLLAPSE = {
    "source": P2,
    "target": P1,
    "images": [
        {"factors": [["x0", "1"], ["x2", "1"]]},
        {"factors": [["x1", "1"], ["x2", "1"]]},
    ],
}
SEGRE = {
    "source": P1XP1,
    "target": P3,
    "images": [
        {"factors": [["x0", "1"], ["y0", "1"]]},
        {"factors": [["x0", "1"], ["y1", "1"]]},
        {"factors": [["x1", "1"], ["y0", "1"]]},
        {"factors": [["x1", "1"], ["y1", "1"]]},
    ],
}
ROOT_MAP = {
    "source": LINE,
    "target": QUARTER,
    "images": [
        {"factors": [["t", "3/2"]]},
        {"factors": [["t", "1/2"]]},
    ],
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# codec round trips


def test_unit_round_trip():
    unit = RadicalScalar.make(
        -1, [(2, Fraction(1, 2)), (3, Fraction(-1, 3))]
    )
    encoded = unit_to_json(unit)
    assert encoded["sign"] == -1
    assert unit_from_json(encoded, "here") == unit
    assert unit_to_json(RadicalScalar.one()) is None
    assert unit_from_json(None, "here") == RadicalScalar.one()
    assert unit_from_json({"sign": -1}, "here") == RadicalScalar.make(-1, ())


def test_section_round_trip_with_radical():
    ring = ring_p2()
    section = FactoredSection.from_factors(
        3,
        [(ring.parse("x0 + x1"), Fraction(3, 2)), (ring.parse("x2"), Fraction(-1))],
        unit=RadicalScalar.make(-1, [(2, Fraction(1, 2))]),
    )
    encoded = section_to_json(ring, section)
    assert section_from_json(ring, encoded, "here") == section
    assert section_from_json(ring, "0", "here").is_zero
    assert section_to_json(ring, FactoredSection.zero(3)) == "0"


def test_description_round_trip_examples():
    for doc in (CREMONA, COLLAPSE, SEGRE, ROOT_MAP):
        d = description_from_json(doc, False)
        assert description_from_json(description_to_json(d), False) == d


def test_random_description_round_trip():
    rng = random.Random(99)
    ring = ring_p2()
    names = ("x0", "x1", "x2")
    for _ in range(100):
        degree = rng.randint(1, 4)
        images = []
        for _ in range(3):
            a = rng.randint(0, degree)
            b = rng.randint(0, degree - a)
            exps = (a, b, degree - a - b)
            images.append(
                FactoredSection.from_factors(
                    3,
                    [
                        (ring.parse(n), Fraction(e))
                        for n, e in zip(names, exps)
                        if e
                    ],
                )
            )
        d = CoxDescription(ring, ring, images)
        assert description_from_json(description_to_json(d), False) == d


# ---------------------------------------------------------------------------
# check


def test_check_passes_on_cremona(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = main(["check", write(tmp_path, "c.json", CREMONA), "-o", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "result: pass" in text
    cert = json.loads(out.read_text())
    assert cert["status"] == "pass"
    assert cert["conditions"] == {
        "zero_cone": True,
        "homogeneity": True,
        "relevance": True,
    }
    assert cert["non_regular_patterns"] == [
        ["x0", "x1"],
        ["x0", "x2"],
        ["x1", "x2"],
    ]
    assert all(entry["status"] == "agrees" for entry in cert["divisors"])


def test_check_reports_incomplete_description(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = main(["check", write(tmp_path, "c.json", COLLAPSE), "-o", str(out)])
    assert code == 1
    cert = json.loads(out.read_text())
    assert cert["status"] == "violated"
    statuses = {entry["factor"]: entry["status"] for entry in cert["divisors"]}
    assert statuses["x2"] == "needs_modification"
    assert "non_regular_patterns" not in cert


def test_check_reports_inhomogeneity(tmp_path):
    doc = {
        "source": P1,
        "target": P1,
        "images": [
            {"factors": [["u", "1"]]},
            {"factors": [["v", "2"]]},
        ],
    }
    out = tmp_path / "cert.json"
    code = main(["check", write(tmp_path, "d.json", doc), "-o", str(out)])
    assert code == 1
    cert = json.loads(out.read_text())
    assert cert["conditions"]["homogeneity"] is False
    assert cert["homogeneity_failure"]["reason"] == "nonzero_degree"
    assert cert["homogeneity_failure"]["degree_free"] == ["-1"]


def test_check_reports_zero_cone_violation(tmp_path):
    doc = {"source": P1, "target": P1, "images": ["0", "0"]}
    out = tmp_path / "cert.json"
    code = main(["check", write(tmp_path, "d.json", doc), "-o", str(out)])
    assert code == 1
    cert = json.loads(out.read_text())
    assert cert["conditions"]["zero_cone"] is False


def test_check_with_sampling(tmp_path):
    out = tmp_path / "cert.json"
    code = main(
        [
            "check",
            write(tmp_path, "r.json", ROOT_MAP),
            "-o",
            str(out),
            "--samples",
            "8",
            "--seed",
            "5",
        ]
    )
    assert code == 0
    cert = json.loads(out.read_text())
    assert cert["sampling"]["ok"] is True
    assert cert["sampling"]["samples"] == 8
    assert cert["sampling"]["max_deviation"] < 1e-7


# ---------------------------------------------------------------------------
# complete


def test_complete_pipeline(tmp_path, capsys):
    completed = tmp_path / "done.json"
    code = main(
        ["complete", write(tmp_path, "c.json", COLLAPSE), "-o", str(completed)]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "needs modification" in text
    payload = json.loads(completed.read_text())
    assert payload["images"] == [
        {"factors": [["x0", "1"]]},
        {"factors": [["x1", "1"]]},
    ]
    entry = next(e for e in payload["completion"] if e["factor"] == "x2")
    assert entry["modified"] is True
    assert entry["mu_prime"] == ["0", "0"]
    assert entry["final_status"] == "agrees"
    # the repaired document now passes check
    assert main(["check", str(completed)]) == 0


def test_complete_keeps_agreeing_description(tmp_path):
    out = tmp_path / "done.json"
    assert main(["complete", write(tmp_path, "c.json", CREMONA), "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["images"] == CREMONA["images"]
    assert all(e["modified"] is False for e in payload["completion"])


# ---------------------------------------------------------------------------
# construct


def test_construct_square_root_map(tmp_path, capsys):
    doc = {
        "source": LINE,
        "target": QUARTER,
        "character_map": {
            "sigma": [],
            "basis": [[1, 0], [0, 1]],
            "values": [
                {"factors": [["t", "2"]]},
                {"factors": [["t", "1"]]},
            ],
        },
    }
    out = tmp_path / "built.json"
    code = main(["construct", write(tmp_path, "c.json", doc), "-o", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["images"] == [
        {"factors": [["t", "3/2"]]},
        {"factors": [["t", "1/2"]]},
    ]
    assert "3/2" in capsys.readouterr().out


def test_construct_rejects_inconsistent_data(tmp_path, capsys):
    doc = {
        "source": LINE,
        "target": QUARTER,
        "character_map": {
            "sigma": [],
            "basis": [[1, 0], [0, 1]],
            "values": [
                {"factors": [["t", "2"]]},
                {"factors": [["t", "1"]], "unit": {"sign": -1}},
            ],
        },
    }
    assert main(["construct", write(tmp_path, "c.json", doc)]) == 1
    assert "construction failed" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# eval


def test_eval_two_branches(tmp_path, capsys):
    doc = dict(ROOT_MAP, eval_points=[[4]])
    out = tmp_path / "values.json"
    code = main(["eval", write(tmp_path, "r.json", doc), "-o", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    (entry,) = payload["evaluations"]
    assert entry["root_order"] == 2
    values = {
        tuple(round(c[0]) for c in value) for value in entry["values"]
    }
    assert values == {(8, 2), (-8, -2)}
    text = capsys.readouterr().out
    assert "2 values" in text


def test_eval_point_flag_and_pole(tmp_path, capsys):
    chart = {
        "source": P1,
        "target": P1,
        "images": [
            {"factors": [["u", "1"], ["v", "-1"]]},
            {"factors": [["u", "0"]]},
        ],
    }
    path = write(tmp_path, "chart.json", chart)
    assert main(["eval", path, "--point", "2,1"]) == 0
    assert main(["eval", path, "--point", "1,0"]) == 1
    assert "pole" in capsys.readouterr().out


def test_eval_requires_points(tmp_path):
    assert main(["eval", write(tmp_path, "c.json", CREMONA)]) == 2


# ---------------------------------------------------------------------------
# verify-ideal


def test_verify_ideal_segre(tmp_path, capsys):
    doc = dict(SEGRE, ideal=["z0*z3 - z1*z2"])
    out = tmp_path / "v.json"
    code = main(["verify-ideal", write(tmp_path, "s.json", doc), "-o", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["all_vanish"] is True

    bad = dict(SEGRE, ideal=["z0*z3 + z1*z2"])
    code = main(["verify-ideal", write(tmp_path, "b.json", bad)])
    assert code == 1
    assert "does not vanish" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# schema errors


def test_schema_errors_exit_2(tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["check", str(bad_json)]) == 2

    missing = dict(CREMONA)
    del missing["images"]
    assert main(["check", write(tmp_path, "m.json", missing)]) == 2

    wrong_count = dict(CREMONA, images=CREMONA["images"][:2])
    assert main(["check", write(tmp_path, "w.json", wrong_count)]) == 2

    unknown_var = {
        "source": P1,
        "target": P1,
        "images": [{"factors": [["w", "1"]]}, "0"],
    }
    assert main(["check", write(tmp_path, "u.json", unknown_var)]) == 2

    bad_fan = {
        "source": dict(P1, rays=[[2], [-1]]),
        "target": P1,
        "images": [{"factors": [["u", "1"]]}, "0"],
    }
    assert main(["check", write(tmp_path, "f.json", bad_fan)]) == 2
    assert "input error" in capsys.readouterr().err

    assert main(["check", str(tmp_path / "does-not-exist.json")]) == 2

    # integers must be JSON integers: floats, strings and bools are not coerced
    not_integers = [
        dict(CREMONA, source=dict(P2, rays=[[1.9, 0], [0, 1], [-1, -1]])),
        dict(CREMONA, target=dict(P2, rays=["10", [0, 1], [-1, -1]])),
        dict(CREMONA, source=dict(P2, rays=[[True, 0], [0, 1], [-1, -1]])),
        dict(CREMONA, source=dict(P2, max_cones=[[0, 1], [1, 2], [0, "2"]])),
        dict(CREMONA, target=dict(P2, max_cones=[[0, 1.0], [1, 2], [0, 2]])),
        dict(ROOT_MAP, source=dict(LINE, dim=True)),
        # false is not the zero image
        dict(CREMONA, images=CREMONA["images"][:2] + [False]),
    ]
    for k, doc in enumerate(not_integers):
        assert main(["check", write(tmp_path, "i%d.json" % k, doc)]) == 2, doc
        assert "input error" in capsys.readouterr().err

    construct = {
        "source": LINE,
        "target": QUARTER,
        "character_map": {
            "sigma": [],
            "basis": [[1, 0], [0, 1]],
            "values": [{"factors": [["t", "2"]]}, {"factors": [["t", "1"]]}],
        },
    }
    charmaps = [
        dict(construct["character_map"], basis=[[1, 0], [0, "1"]]),
        dict(construct["character_map"], basis=[[1, 0], [0, 1.5]]),
        dict(construct["character_map"], sigma=[False]),
    ]
    for k, charmap in enumerate(charmaps):
        doc = dict(construct, character_map=charmap)
        assert main(["construct", write(tmp_path, "c%d.json" % k, doc)]) == 2, doc
        assert "input error" in capsys.readouterr().err

    scalar_points = dict(ROOT_MAP, eval_points=5)
    assert main(["eval", write(tmp_path, "e.json", scalar_points)]) == 2
    assert "input error" in capsys.readouterr().err


def test_factor_sanity_and_trust(tmp_path, capsys):
    doc = {
        "source": P2,
        "target": P1,
        "images": [
            {"factors": [["2*x0", "1"]]},
            {"factors": [["x1", "1"]]},
        ],
    }
    path = write(tmp_path, "d.json", doc)
    assert main(["check", path]) == 2
    assert "not normalized" in capsys.readouterr().err
    assert main(["check", path, "--trust-factors"]) == 0

    reducible = {
        "source": P2,
        "target": P1,
        "images": [
            {"factors": [["x0*x1", "1"]]},
            {"factors": [["x0", "1"], ["x1", "1"]]},
        ],
    }
    assert main(["check", write(tmp_path, "r.json", reducible)]) == 2
    assert "reducible" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    path = write(tmp_path, "c.json", CREMONA)
    proc = subprocess.run(
        [sys.executable, "-m", "coxmap.cli", "check", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "result: pass" in proc.stdout
