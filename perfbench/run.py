"""Benchmark of the wheatyield pipeline, measured from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Every measured run is one fresh child process, started one at a time with
``--jobs 1``; its wall time is taken around the child and its peak RSS and
CPU time come from ``os.wait4``.

Workloads (the seed makes every input; the program only sees the files or
arguments generated from it):

  datapath          ``synth`` into a fresh directory, then ``features`` on a
                    default-scale input set of which ~1% of rows were damaged
                    by ``corrupt.py``. Drives synthgen, the CSV writers,
                    ingest with its rejection path and features; no learner.
  seed_sweep        ``sweep.py``: one signal and one null seed of the
                    in-memory experiment with the acceptance suite's desk
                    hyperparameters, all six models, reports rendered in
                    memory. Its set-up is a cold child importing the CLI.
  evaluate_default  ``evaluate`` with the default config (6 models x 2 modes)
                    on clean ``synth`` output made at set-up. Runnable by
                    hand; not in BENCHMARK.json (see README.md).

With ``--trace 0`` the run sets up ``setup_reps`` times, half of them
(rounded up) before the samples and the rest after; setup_s is the median.
It takes samples, one after another, as long as the next one is expected to
end within ``--seconds``, and reports wall_s, peak_rss_mb and setup_s. With
``--trace 1`` it sets up once, measures untraced samples the same way, then
runs one more sample through ``traced.py`` and reports the per-layer
metrics taken from its spans.

Every sample is checked: exit status 0, every expected file present and
parseable, row counts and rejection lines equal to what the inputs were
built to produce, every MAE finite, and the same output digests and counts
as every other sample of the run. A failed check counts the sample in
``failed``; the run then prints ``"correct": false`` and exits 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

DEADLINE_S = 165.0  # stop starting samples that would end past this

MODEL_KINDS = (
    "decision_tree", "svr", "random_forest", "extra_trees",
    "hist_gradient_boosting", "gradient_boosting",
)
TREE_KINDS = tuple(k for k in MODEL_KINDS if k != "svr")
MODES = ("soil_only", "soil_weather")
N_TRAIN, N_TEST = 1608, 264  # zone-years of the default synth config
REPORT_HEADER = "model,mae_soil,mae_sw,z_soil,p_soil,z_sw,p_sw,t_paired,p_paired"
N_SOIL_FEATURES, N_WEATHER_FEATURES = 8, 144

LAYER_TIMES = (
    ["synthgen.generate_records_s", "synthgen.write_csv_s",
     "ingest.parse_weather_s", "ingest.parse_soil_s", "ingest.parse_crop_s",
     "features.build_instances_s", "features.build_matrix_s",
     "features.write_features_csv_s"]
    + [f"learners.fit_s.{k}.{m}" for k in MODEL_KINDS for m in MODES]
    + ["learners.predict_s", "evalstat.stats_s", "evalstat.run_experiment_self_s",
       "reporting.write_s", "cli.self_s", "process.import_s",
       "trace.unattributed_s", "trace.wall_s"]
)
COUNTS = (
    ["synthgen.weather_rows", "synthgen.bytes_written", "ingest.rows_read",
     "ingest.rows_rejected", "ingest.bytes_read", "features.instances",
     "features.skipped"]
    + [f"learners.nodes.{k}.{m}" for k in TREE_KINDS for m in MODES]
)
UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
         "trace.overhead_frac": "frac", "ingest.accept_ratio": "ratio"}

# span name -> per-layer metric its self time is added to
SPAN_METRIC = {
    "synthgen.generate_records": "synthgen.generate_records_s",
    "synthgen.write_soil_csv": "synthgen.write_csv_s",
    "synthgen.write_weather_csv": "synthgen.write_csv_s",
    "synthgen.write_crop_csv": "synthgen.write_csv_s",
    "ingest.parse_weather": "ingest.parse_weather_s",
    "ingest.parse_soil": "ingest.parse_soil_s",
    "ingest.parse_crop": "ingest.parse_crop_s",
    "features.build_instances": "features.build_instances_s",
    "features.build_matrix": "features.build_matrix_s",
    "features.write_features_csv": "features.write_features_csv_s",
    "learners.predict": "learners.predict_s",
    "evalstat.zscore_panel": "evalstat.stats_s",
    "evalstat.paired_t_one_tailed": "evalstat.stats_s",
    "evalstat.run_experiment": "evalstat.run_experiment_self_s",
    "reporting.write_report_csv": "reporting.write_s",
    "reporting.write_report_txt": "reporting.write_s",
    "reporting.write_mae_chart_svg": "reporting.write_s",
    "reporting.report_csv": "reporting.write_s",
    "reporting.report_text": "reporting.write_s",
    "reporting.mae_chart_svg": "reporting.write_s",
    "cli": "cli.self_s",
}


class CheckFailed(ValueError):
    """An output check failed."""


# what reading a missing, truncated or malformed output raises
OUTPUT_ERRORS = (ValueError, IndexError, KeyError, OSError, ET.ParseError)


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- children ----------------------------------------------------------------

@dataclass
class Child:
    wall: float
    rss_mb: float
    cpu: float
    trace: dict | None = None


def run_child(entry: str, args: list[str], cwd: Path, trace_path: Path | None = None) -> Child:
    """Run one child to completion: the wheatyield CLI for ``entry`` "cli",
    else the benchmark script ``<entry>.py``.

    With ``trace_path`` the child runs under ``traced.py``, which writes its
    spans there."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    base = [sys.executable, "-m", "wheatyield.cli"] if entry == "cli" else [
        sys.executable, str(BENCH / f"{entry}.py")]
    with open(cwd / "child.log", "ab") as log:
        start = time.monotonic()
        argv = base + args
        if trace_path is not None:
            argv = [sys.executable, str(BENCH / "traced.py"), str(trace_path), repr(start),
                    entry] + args
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: take the child down too
            proc.kill()
            proc.wait()
            raise
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    check(proc.returncode == 0,
          f"`{' '.join([entry] + args)}` exited with {proc.returncode}; see {cwd / 'child.log'}")
    trace = json.loads(trace_path.read_text()) if trace_path is not None else None
    return Child(wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime, trace)


# -- output checks ---------------------------------------------------------

def sha256(path: Path) -> str:
    check(path.is_file(), f"missing output {path.name}")
    return hashlib.sha256(path.read_bytes()).hexdigest()


def data_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def read_csv(path: Path) -> list[list[str]]:
    check(path.is_file(), f"missing output {path.name}")
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def check_same(name: str, got: list, want: list) -> int:
    if got != want:
        i = next(i for i, (a, b) in enumerate(zip(got + [None], want + [None])) if a != b)
        raise CheckFailed(f"{name}: {len(got)} rows, expected {len(want)}; first difference "
                          f"at data row {i + 1}: {got[i:i + 1]} instead of {want[i:i + 1]}")
    return len(want)


def check_lines(path: Path, header: str, expected: list[str]) -> int:
    check(path.is_file(), f"missing output {path.name}")
    lines = path.read_text().splitlines()
    check(lines[:1] == [header], f"{path.name}: header {lines[:1]}")
    return check_same(path.name, lines[1:], expected)


def check_rejections(path: Path, expected: list[list]) -> int:
    rows = read_csv(path)
    check(rows[:1] == [["source", "line", "reason"]], f"{path.name}: header {rows[:1]}")
    return check_same(path.name, rows[1:], [[s, str(line), r] for s, line, r in expected])


def check_features(path: Path, n_features: int, instances: list[list]) -> int:
    rows = read_csv(path)
    header = rows[0] if rows else []
    check(len(header) == n_features + 3 and header[:2] == ["zone_id", "year"]
          and header[-1] == "yield_t_ha", f"{path.name}: header has {len(header)} columns")
    keys = [[r[0], int(r[1])] for r in rows[1:]]
    check(keys == instances, f"{path.name}: {len(keys)} zone-years, expected "
                             f"{len(instances)} in crop order")
    for r in rows[1:]:
        check(len(r) == len(header), f"{path.name}: ragged row for {r[0]},{r[1]}")
        check(all(math.isfinite(float(v)) for v in r[2:]), f"{path.name}: non-finite value")
    return len(keys)


def check_report(rows: list[list[str]], text: str, svg: ET.Element) -> None:
    """report.csv rows, report.txt text and the chart of one experiment."""
    check(rows[:1] == [REPORT_HEADER.split(",")], f"report.csv: header {rows[:1]}")
    check(sorted(r[0] for r in rows[1:]) == sorted(MODEL_KINDS), "report.csv: model rows")
    for r in rows[1:]:
        check(len(r) == 9, f"report.csv: row {r[0]} has {len(r)} fields")
        check(all(math.isfinite(float(v)) and float(v) > 0 for v in r[1:3]),
              f"report.csv: MAE of {r[0]} is not finite and positive")
        check(not any(math.isnan(float(v)) for v in r[3:]), f"report.csv: NaN statistic for {r[0]}")
    check(f"# instances:   {N_TRAIN} train / {N_TEST} test" in text,
          "report.txt: instance counts differ from the input")
    check(svg.tag.endswith("svg"), "mae_chart.svg: root is not <svg>")


def input_counts(input_dir: Path) -> dict[str, int]:
    files = [input_dir / f"{n}.csv" for n in ("soil", "weather", "crop")]
    return {"ingest.rows_read": sum(data_lines(p) for p in files),
            "ingest.bytes_read": sum(p.stat().st_size for p in files)}


def synth_outputs(out: Path) -> tuple[dict[str, str], dict[str, int]]:
    files = [out / f"{n}.csv" for n in ("soil", "weather", "crop")]
    digests = {f"synth/{p.name}": sha256(p) for p in files}
    counts = {"synthgen.weather_rows": data_lines(out / "weather.csv"),
              "synthgen.bytes_written": sum(p.stat().st_size for p in files)}
    return digests, counts


def write_config(path: Path, input_dir: str) -> None:
    path.write_text("[paths]\n" + "".join(
        f"{n} = {input_dir}/{n}.csv\n" for n in ("soil", "weather", "crop")))


# -- workloads -------------------------------------------------------------

@dataclass
class Sample:
    wall: float
    rss_mb: float
    cpu: float
    counts: dict[str, float]
    digests: dict[str, str]
    traces: list[dict] = field(default_factory=list)


def _sample(children: list[Child], counts, digests) -> Sample:
    return Sample(sum(c.wall for c in children), max(c.rss_mb for c in children),
                  sum(c.cpu for c in children), counts, digests,
                  [c.trace for c in children if c.trace is not None])


class Datapath:
    """synth into a fresh directory, then features on the damaged input set."""

    setup_reps = 3

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.expected: dict | None = None
        self.clean: dict[str, str] = {}

    def setup(self, name: str) -> None:
        base = self.work / name
        base.mkdir()
        run_child("cli", ["synth", "--seed", str(self.seed), "--out", f"{name}/clean",
                          "--jobs", "1"], self.work)
        # a child of its own, so the parent stays small: a child's peak RSS
        # includes its parent's resident memory at the moment it was started
        run_child("corrupt", [f"{name}/clean", name, str(self.seed), "inputs",
                              f"{name}/expected.json"], self.work)
        expected = json.loads((base / "expected.json").read_text())
        clean, _ = synth_outputs(base / "clean")
        if self.expected is None:
            self.expected, self.clean = expected, clean
            write_config(self.work / "inputs.ini", name)
        else:
            check(clean == self.clean and expected == self.expected,
                  f"set-up {name} differs from the first set-up")
            shutil.rmtree(base)

    def sample(self, name: str, trace: bool) -> Sample:
        (self.work / name).mkdir()
        tp = (lambda i: self.work / name / f"trace{i}.json") if trace else (lambda i: None)
        synth = run_child("cli", ["synth", "--seed", str(self.seed), "--out", f"{name}/synth",
                                  "--jobs", "1"], self.work, tp(0))
        feats = run_child("cli", ["features", "--config", "inputs.ini", "--out",
                                  f"{name}/features", "--jobs", "1"], self.work, tp(1))
        digests, counts = synth_outputs(self.work / name / "synth")
        check(digests == self.clean, "synth output differs from the set-up's synth output")
        out, exp = self.work / name / "features", self.expected
        counts.update(input_counts(self.work / "inputs"))
        check(counts["ingest.rows_read"] == exp["rows_read"], "input row count changed")
        counts["ingest.rows_rejected"] = check_rejections(out / "rejections.csv",
                                                          exp["rejections"])
        counts["features.skipped"] = check_lines(out / "skipped_instances.csv",
                                                 "zone_id,year,reason", exp["skipped"])
        check_features(out / "features_soil.csv", N_SOIL_FEATURES, exp["instances"])
        counts["features.instances"] = check_features(
            out / "features_soil_weather.csv", N_SOIL_FEATURES + N_WEATHER_FEATURES,
            exp["instances"])
        for f in ("features_soil.csv", "features_soil_weather.csv", "rejections.csv",
                  "skipped_instances.csv"):
            digests[f] = sha256(out / f)
        return _sample([synth, feats], counts, digests)


class EvaluateDefault:
    """evaluate with the default config on clean synth output."""

    setup_reps = 3

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.inputs: dict[str, str] | None = None
        self.synth_counts: dict[str, int] = {}

    def setup(self, name: str) -> None:
        run_child("cli", ["synth", "--seed", str(self.seed), "--out", name, "--jobs", "1"],
                  self.work)
        digests, counts = synth_outputs(self.work / name)
        if self.inputs is None:
            self.inputs, self.synth_counts = digests, counts
            write_config(self.work / "inputs.ini", name)
        else:
            check(digests == self.inputs, f"set-up {name} differs from the first set-up")
            shutil.rmtree(self.work / name)

    def sample(self, name: str, trace: bool) -> Sample:
        (self.work / name).mkdir()
        child = run_child("cli", ["evaluate", "--config", "inputs.ini", "--seed", str(self.seed),
                                  "--out", name, "--jobs", "1"], self.work,
                          self.work / name / "trace.json" if trace else None)
        out = self.work / name
        check_report(read_csv(out / "report.csv"), (out / "report.txt").read_text(),
                     ET.parse(out / "mae_chart.svg").getroot())
        counts = dict(self.synth_counts)
        counts.update(input_counts(self.work / "inputs"))
        counts["ingest.rows_rejected"] = check_rejections(out / "rejections.csv", [])
        counts["features.skipped"] = check_lines(out / "skipped_instances.csv",
                                                 "zone_id,year,reason", [])
        counts["features.instances"] = N_TRAIN + N_TEST
        digests = {f: sha256(out / f) for f in ("report.csv", "report.txt", "mae_chart.svg",
                                                 "rejections.csv")}
        return _sample([child], counts, digests)


class SeedSweep:
    """One signal and one null seed of the in-memory experiment."""

    setup_reps = 8  # a set-up takes a quarter second, so more of them steady the median

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work

    def setup(self, name: str) -> None:
        # no input files: the set-up is a cold child importing the pipeline
        (self.work / name).mkdir()
        run_child("cli", ["--help"], self.work / name)

    def sample(self, name: str, trace: bool) -> Sample:
        (self.work / name).mkdir()
        child = run_child("sweep", [str(self.seed), f"{name}/result.json"], self.work,
                          self.work / name / "trace.json" if trace else None)
        result = json.loads((self.work / name / "result.json").read_text())
        counts = {"features.instances": 0, "features.skipped": 0}
        for label in ("signal", "null"):
            part = result[label]
            check(part["skipped"] == 0, f"{label}: {part['skipped']} zone-years skipped")
            check_report(list(csv.reader(part["report.csv"].splitlines())), part["report.txt"],
                         ET.fromstring(part["mae_chart.svg"]))
            counts["features.instances"] += part["instances"]
        digests = {"result.json": sha256(self.work / name / "result.json")}
        return _sample([child], counts, digests)


WORKLOADS = {"datapath": Datapath, "seed_sweep": SeedSweep,
             "evaluate_default": EvaluateDefault}


# -- metrics -----------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def layer_metrics(sample: Sample, untraced_wall: float) -> dict[str, float]:
    """Per-layer self times and counts of one traced sample."""
    metrics = {name: 0.0 for name in LAYER_TIMES}
    attributed = 0.0
    for trace in sample.traces:
        spans = trace["spans"]
        inner = [0.0] * len(spans)
        for name, parent, start, end, attrs in spans:
            if parent >= 0:
                inner[parent] += end - start
        for (name, parent, start, end, attrs), child_time in zip(spans, inner):
            if name == "learners.train_on_matrix":
                key = f"learners.fit_s.{attrs['kind']}.{attrs['mode']}"
            else:
                key = SPAN_METRIC.get(name)
            if key is not None:
                metrics[key] += end - start - child_time
                attributed += end - start - child_time
        metrics["process.import_s"] += trace["import_s"]
        attributed += trace["import_s"]
    metrics["trace.wall_s"] = sample.wall
    metrics["trace.unattributed_s"] = sample.wall - attributed
    metrics["trace.overhead_frac"] = sample.wall / untraced_wall - 1.0
    for name in COUNTS:
        metrics[name] = sample.counts.get(name, 0)
    read = sample.counts.get("ingest.rows_read", 0)
    metrics["ingest.accept_ratio"] = (
        (read - sample.counts["ingest.rows_rejected"]) / read if read else 0.0)
    return metrics


def unit(name: str) -> str:
    return UNITS.get(name, "s" if name in LAYER_TIMES else "count")


def traced_counts(sample: Sample) -> dict[str, float]:
    total: dict[str, float] = {}
    for trace in sample.traces:
        for name, value in trace["counts"].items():
            total[name] = total.get(name, 0) + value
    return total


# -- environment -------------------------------------------------------------

def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    try:
        numpy = version("numpy")
    except PackageNotFoundError:
        numpy = "missing"
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy,
            "commit": git_commit(), "loadavg_before": os.getloadavg()}


# -- main ----------------------------------------------------------------------

def measure(args, work: Path, record: dict) -> tuple[dict, int, int]:
    started = time.monotonic()
    workload = WORKLOADS[args.workload](args.seed % 2**32, work)
    # set-up runs half of its repetitions before the samples and the rest
    # after them, so that a slow spell of the host does not cover them all
    reps = 1 if args.trace else workload.setup_reps
    setup_times = []

    def set_up(r: int) -> None:
        t = time.monotonic()
        workload.setup("inputs" if r == 0 else f"setup{r}")
        setup_times.append(time.monotonic() - t)

    for r in range((reps + 1) // 2):
        set_up(r)
    record["setup_s"] = setup_times

    samples: list[Sample] = []
    failures: list[str] = []
    t_measure, k = time.monotonic(), 0
    while True:
        try:
            # one output name for every sample: the config digest in
            # report.txt covers the output path
            samples.append(workload.sample("out", trace=False))
        except OUTPUT_ERRORS as exc:
            failures.append(f"sample {k}: {exc!r}")
        shutil.rmtree(work / "out", ignore_errors=True)
        k += 1
        now = time.monotonic()
        last = samples[-1].wall if samples else now - t_measure
        # no sample starts that would end past --seconds; leave room for the
        # remaining set-ups and the traced sample, which takes as long again
        reserve = (reps // 2) * 1.2 * max(setup_times) + (2.4 if args.trace else 1.2) * last
        if now + last - t_measure > args.seconds or now - started + reserve > DEADLINE_S:
            break
    for r in range((reps + 1) // 2, reps):
        set_up(r)

    traced = None
    if args.trace:
        k += 1
        try:
            traced = workload.sample("out", trace=True)
            inside = traced_counts(traced)
            for name, value in inside.items():
                check(traced.counts.setdefault(name, value) == value,
                      f"traced count {name}={value} but outputs show {traced.counts[name]}")
            samples.append(traced)
        except OUTPUT_ERRORS as exc:
            failures.append(f"traced sample: {exc!r}")

    for s in samples[1:]:
        ref = samples[0]
        differ = [f for f in ref.digests if s.digests.get(f) != ref.digests[f]]
        differ += [c for c, v in ref.counts.items() if s.counts.get(c) != v]
        if differ:
            failures.append(f"outputs or counts differ from the first sample: {sorted(differ)}")
    record.update(
        samples=[{"wall_s": s.wall, "peak_rss_mb": s.rss_mb, "cpu_s": s.cpu,
                  "counts": s.counts, "digests": s.digests} for s in samples],
        failures=failures)
    if failures or not samples:
        return {}, k, len(failures)

    untraced = [s for s in samples if s is not traced]
    walls = [s.wall for s in untraced]
    q1, med, q3 = quartiles(walls)
    if args.trace:
        metrics = layer_metrics(traced, med)
        record["spans"] = [t["spans"] for t in traced.traces]
    else:
        metrics = {"wall_s": med, "peak_rss_mb": statistics.median(s.rss_mb for s in untraced),
                   "setup_s": statistics.median(setup_times)}
    print(f"{args.workload} seed={args.seed}: wall_s median={med:.3f} q1={q1:.3f} q3={q3:.3f} s "
          f"(n={len(walls)}); peak_rss_mb median="
          f"{statistics.median(s.rss_mb for s in untraced):.1f} MB (n={len(walls)}); "
          f"setup_s median={statistics.median(setup_times):.3f} s (n={len(setup_times)}); "
          f"cpu_s median={statistics.median(s.cpu for s in untraced):.3f} s")
    for name, value in samples[-1].counts.items():
        print(f"  count {name} = {value}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {unit(name)}")
    return {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()}, k, 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # turn SIGTERM into SystemExit so a running child is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "wheatyield" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC / 'wheatyield'}; "
              "run from the root of a wheatyield checkout", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment()}
    try:
        metrics, attempted, failed = measure(args, work, record)
    except OUTPUT_ERRORS as exc:
        record["failures"] = [f"set-up: {exc!r}"]
        metrics, attempted, failed = {}, 1, 1
    finally:
        record["env"]["loadavg_after"] = os.getloadavg()
        shutil.rmtree(work, ignore_errors=True)
    env = record["env"]
    print(f"env nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"commit={env['commit']} loadavg_before={env['loadavg_before']} "
          f"loadavg_after={env['loadavg_after']}")
    for failure in record.get("failures", []):
        print(f"FAILED {failure}")
    print(f"{args.workload} fail_frac={failed}/{attempted}={failed / attempted:.3f}")
    (WORK / "records").mkdir(exist_ok=True)
    (WORK / "records" / f"{work.name}.json").write_text(json.dumps(record, indent=1))
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
