import json

from greenlab.io import report_to_json


def test_report_json_stable(tmp_path):
    doc = {"b": 1.5, "a": [1, 2], "nested": {"z": 0.1, "y": "s"}}
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    report_to_json(doc, p1)
    report_to_json(json.loads(p1.read_text()), p2)
    assert p1.read_bytes() == p2.read_bytes()
