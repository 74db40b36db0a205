"""The JSON the program writes validates against the schemas in docs/schemas."""

import json
import os

import jsonschema
import numpy as np

from csskit import covest, simlab
from csskit.cli import main
from csskit.sizesel import Model, SizeSelectionReport, SizeTestRecord, choose_k

SCHEMAS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "docs", "schemas")


def schema(name):
    with open(os.path.join(SCHEMAS, f"{name}.v1.json")) as fh:
        return json.load(fh)


def validate(doc, name):
    # through a JSON round trip: what a reader of the file gets
    jsonschema.validate(json.loads(json.dumps(doc, allow_nan=False)), schema(name))


def test_size_selection_reports_validate():
    x = simlab.sample(simlab.sizesel_a2_spec(), 200, seed=[1, 0, 0])
    reports = [
        choose_k(covest.sample_cov(x), n=200, model=model, restarts=1, seed=1) for model in Model
    ]
    # a +inf statistic is written as null
    records = [SizeTestRecord(0, (), float("inf"), 12.5, True), SizeTestRecord(1, (2,), 3.0, 4.0, False)]
    reports.append(SizeSelectionReport(records, 1, (2,), 0.05, Model.SUBSET_FACTOR, 2000, 0))
    for report in reports:
        validate(report.to_json_dict(), "size-selection-report")


def test_manifests_validate(tmp_path, capsys):
    rng = np.random.default_rng(5)
    data = tmp_path / "rows.csv"
    np.savetxt(data, rng.standard_normal((120, 6)), delimiter=",")
    runs = [
        ["select", "--data", str(data), "--k", "2", "--method", "swap", "--seed", "1"],
        ["covest", "--data", str(data)],
        ["choose-k", "--data", str(data), "--seed", "1"],
        ["simulate", "--scenario", "missing-a1", "--trials", "2", "--n", "150", "--seed", "1"],
        ["simulate", "--scenario", "sizesel-a2", "--trials", "2", "--restarts", "1", "--seed", "1"],
    ]
    for i, argv in enumerate(runs):
        out = tmp_path / f"run{i}.out"
        assert main(argv + ["--out", str(out)]) == 0, argv
        with open(f"{out}.manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["command"] == argv[0]
        validate(manifest, "run-manifest")
    # the size study sums its walks' phase times over trials
    timings = manifest["timings"]
    assert timings["search_s"] > 0.0 and timings["calibrate_s"] > 0.0
    assert timings["search_s"] + timings["calibrate_s"] <= timings["total_s"]
