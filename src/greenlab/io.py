"""Output formats: per-check sample CSVs and canonical JSON reports."""

from __future__ import annotations

import json

import numpy as np


def write_samples_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, (float, np.floating))
                              else str(v) for v in row) + "\n")


def report_to_json(report_dict, path):
    """Canonical JSON: sorted keys, stable float repr, no timestamps."""
    with open(path, "w") as fh:
        json.dump(report_dict, fh, sort_keys=True, indent=2)
        fh.write("\n")
