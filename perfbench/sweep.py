"""One signal seed and one null seed of the in-memory experiment.

    python sweep.py SEED RESULT_JSON

The shape of acceptance criteria 3 and 4, with no CSV files:
generate_records, then build_instances, then run_experiment on all six
models, once with the default weather weight and once with
weather_weight = 0. Each report is rendered in memory as ``evaluate``
renders it, and the texts go into RESULT_JSON for the benchmark to check.
The model hyperparameters are the acceptance suite's desk settings, copied
here so the benchmark does not depend on the test files.
"""

from __future__ import annotations

import json
import sys

from wheatyield import evalstat, features, reporting, synthgen
from wheatyield.learners import MODEL_KINDS, ModelParams


def desk_params(seed: int) -> dict[str, ModelParams]:
    return {
        "decision_tree": ModelParams(max_depth=6, min_samples_leaf=5, seed=seed),
        "svr": ModelParams(svr_iterations=2000, seed=seed),
        "random_forest": ModelParams(n_estimators=60, max_depth=7, min_samples_leaf=3, seed=seed),
        "extra_trees": ModelParams(n_estimators=60, max_depth=7, min_samples_leaf=3, seed=seed),
        "gradient_boosting": ModelParams(n_estimators=100, max_depth=3,
                                         min_samples_leaf=5, seed=seed),
        "hist_gradient_boosting": ModelParams(n_estimators=100, max_depth=None,
                                              max_leaves=16, min_samples_leaf=5, seed=seed),
    }


def main(argv: list[str]) -> None:
    seed, out_path = int(argv[0]), argv[1]
    result = {}
    for label, weather_weight in (("signal", None), ("null", 0.0)):
        cfg = synthgen.GenConfig(seed=seed)
        if weather_weight is not None:
            cfg = cfg.with_(weather_weight=weather_weight)
        soil, weather, crops = synthgen.generate_records(cfg)
        instances, skipped = features.build_instances(
            crops, soil, weather, features.MODE_SOIL_WEATHER
        )
        exp = evalstat.ExperimentConfig(
            models=list(MODEL_KINDS), model_params=desk_params(seed), seed=seed
        )
        report = evalstat.run_experiment(instances, exp)
        result[label] = {
            "instances": len(instances),
            "skipped": len(skipped),
            "report.csv": reporting.report_csv(report),
            "report.txt": reporting.report_text(report),
            "mae_chart.svg": reporting.mae_chart_svg(report),
        }
    with open(out_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
