"""Run one pipeline child in-process with a span around every layer call.

    python traced.py SPANS_JSON SPAWN_TIME cli <wheatyield cli args...>
    python traced.py SPANS_JSON SPAWN_TIME sweep <sweep.py args...>

Each layer's public functions are wrapped where the calling module looks
them up (``cli`` reaches ``ingest.parse_weather`` through the module,
``evalstat`` binds ``train_on_matrix`` and ``build_matrix`` by name), so no
file of the program changes. Spans (name, parent, start, end, attributes)
and the counts seen at the same boundaries stay in memory and are written
to SPANS_JSON when the child ends. SPAWN_TIME is the parent's
``time.monotonic()`` just before it started this process; the monotonic
clock is shared by every process on the machine, so interpreter start-up
and imports are measured from it.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end, attrs]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def span(self, name: str, fn, on_result=None):
        """``fn`` wrapped so each call records a span named ``name``;
        ``on_result(attrs, counts, args, result)`` runs after the span ends."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, self.stack[-1] if self.stack else -1, time.monotonic(), None, {}]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.monotonic()
                self.stack.pop()
            if on_result is not None:
                on_result(record[4], self.counts, args, result)
            return result

        return wrapper

    def wrap(self, module, attr: str, layer: str, on_result=None) -> None:
        setattr(module, attr, self.span(f"{layer}.{attr}", getattr(module, attr), on_result))


def _tree_nodes(estimator) -> int | None:
    nodes = getattr(estimator, "nodes", None)
    if nodes is not None:
        return nodes.n_nodes
    trees = getattr(estimator, "trees", None)
    if trees is not None:
        return sum(t.n_nodes for t in trees)
    return None


def install(tracer: Tracer) -> None:
    from wheatyield import evalstat, features, ingest, reporting, synthgen
    from wheatyield.features import MODE_SOIL, MODE_SOIL_WEATHER, soil_feature_names

    def generated(attrs, counts, args, result):
        counts["synthgen.weather_rows"] += len(result[1])

    def written(attrs, counts, args, result):
        counts["synthgen.bytes_written"] += os.path.getsize(args[1])

    def parsed(attrs, counts, args, result):
        records, log = result
        counts["ingest.rows_read"] += len(records) + len(log)
        counts["ingest.rows_rejected"] += len(log)
        counts["ingest.bytes_read"] += os.path.getsize(args[0])

    def built(attrs, counts, args, result):
        counts["features.instances"] += len(result[0])
        counts["features.skipped"] += len(result[1])

    n_soil = len(soil_feature_names())

    def fitted(attrs, counts, args, result):
        kind, matrix = args[0], args[1]
        attrs["kind"] = kind
        attrs["mode"] = MODE_SOIL if matrix.n_cols == n_soil else MODE_SOIL_WEATHER
        nodes = _tree_nodes(result.estimator)
        if nodes is not None:
            counts[f"learners.nodes.{kind}.{attrs['mode']}"] += nodes

    tracer.wrap(synthgen, "generate_records", "synthgen", generated)
    for name in ("write_soil_csv", "write_weather_csv", "write_crop_csv"):
        tracer.wrap(synthgen, name, "synthgen", written)
    for name in ("parse_soil", "parse_weather", "parse_crop"):
        tracer.wrap(ingest, name, "ingest", parsed)
    tracer.wrap(features, "build_instances", "features", built)
    tracer.wrap(features, "build_matrix", "features")
    tracer.wrap(features, "write_features_csv", "features")
    tracer.wrap(evalstat, "build_matrix", "features")
    tracer.wrap(evalstat, "train_on_matrix", "learners", fitted)
    tracer.wrap(evalstat, "predict", "learners")
    tracer.wrap(evalstat, "zscore_panel", "evalstat")
    tracer.wrap(evalstat, "paired_t_one_tailed", "evalstat")
    tracer.wrap(evalstat, "run_experiment", "evalstat")
    for name in ("write_report_csv", "write_report_txt", "write_mae_chart_svg",
                 "report_csv", "report_text", "mae_chart_svg"):
        tracer.wrap(reporting, name, "reporting")


def _run_cli(args: list[str]) -> int:
    from wheatyield import cli

    try:
        cli.main.main(args=args, prog_name="wheatyield")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    return 0


def _run_sweep(args: list[str]) -> int:
    import sweep

    sweep.main(args)
    return 0


def main() -> int:
    out_path, spawn_time, entry, args = sys.argv[1], float(sys.argv[2]), sys.argv[3], sys.argv[4:]
    import wheatyield.cli  # noqa: F401  (the import is what is timed)

    if entry == "sweep":
        import sweep  # noqa: F401
    imported = time.monotonic()
    tracer = Tracer()
    install(tracer)
    run = {"cli": _run_cli, "sweep": _run_sweep}[entry]
    code = 1
    try:
        code = tracer.span(entry, run)(args)
    finally:
        with open(out_path, "w") as fh:
            json.dump(
                {
                    "import_s": imported - spawn_time,
                    "spans": tracer.spans,
                    "counts": dict(tracer.counts),
                },
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main())
