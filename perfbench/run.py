"""ineqkit benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload verify_all --seed 20240817 --seconds 15 --trace 0

Run from a checkout root; ineqkit is imported from its src/ directory.  With
--trace 0 the run repeats timed passes until --seconds have elapsed (at
least one pass) and prints the end-to-end metrics.  With --trace 1 it makes
one untraced and one traced pass and prints the per-layer metrics.  The last
line of standard output is one JSON object; the lines before it give every
metric by name and unit, failed_frac and the environment.  Full results go
to perfbench/out/.  See perfbench/README.md.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

if not (ROOT / "src" / "ineqkit" / "__init__.py").is_file():
    sys.exit(f"perfbench: no ineqkit sources under {ROOT / 'src'}")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy  # noqa: E402
import scipy  # noqa: E402
from ineqkit import render, verify  # noqa: E402

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 4  # fresh processes that repeat the set-up, besides this one
RIESZ = "riesz applied to a function with nonzero mean"


def _cpu() -> float:
    """User+system CPU seconds of this process and its reaped children."""
    return sum(ru.ru_utime + ru.ru_stime for ru in
               (resource.getrusage(resource.RUSAGE_SELF),
                resource.getrusage(resource.RUSAGE_CHILDREN)))


def setup(name: str, seed: int):
    """Registry build, corpus family draws and reference load."""
    verify.registry_map()
    return workloads.inputs(name, seed), check.load_reference(seed)


def timed_pass(kwargs: dict, outdir: Path) -> dict:
    """One pass as users run it: run_all, save_report, CSV and SVG renders.

    Warnings are recorded instead of printed; the Riesz nonzero-mean warning
    fires a few hundred times per verify_all pass.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0, c0 = time.perf_counter(), _cpu()
        reports, metadata = verify.run_all(**kwargs)
        doc = verify.save_report(outdir / "report.json", reports, metadata)
        render.render_csv(doc, outdir / "report.csv")
        render.render_svg(doc, outdir / "report.svg")
        wall, cpu = time.perf_counter() - t0, _cpu() - c0
    return {"doc": doc, "wall_s": wall, "cpu_s": cpu,
            "riesz_warnings": sum(str(w.message).startswith(RIESZ) for w in caught),
            "warnings": len(caught)}


class Checker:
    """Counts attempted and failed rows over the passes of one run."""

    def __init__(self, rows: int, reference):
        self.rows, self.reference = rows, reference
        self.first = None
        self.attempted = self.failed = 0

    def add(self, p) -> None:
        """Check one pass (None when it raised): every row counts as attempted."""
        self.attempted += self.rows
        if p is None:
            self.failed += self.rows
            return
        text = check.canonical(p["doc"])
        self.first = text if self.first is None else self.first
        got = sum(len(r["rows"]) for r in p["doc"]["reports"])
        if text != self.first or got != self.rows:
            self.failed += self.rows
        else:
            self.failed += len(check.failed_rows(p["doc"], self.reference))


def _describe(values: list) -> dict:
    """Median, sample count and the highest percentile with ten samples beyond it."""
    vals = sorted(values)
    d = {"median": statistics.median(vals), "n": len(vals)}
    if len(vals) > 20:
        pct = math.floor(100 * (len(vals) - 10) / len(vals))
        d[f"p{pct}"] = statistics.quantiles(vals, n=100, method="inclusive")[pct - 1]
    return d


def _unit(name: str) -> str:
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def _environment(seed: int) -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"cores": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "seed": seed,
            "command": " ".join([Path(sys.executable).name] + sys.argv)}


def _setup_probes(name: str, seed: int) -> list:
    """Set-up seconds of fresh processes, each timed from its own start."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout.split()[-1]))
    return times


def _guarded(kwargs, outdir):
    try:
        return timed_pass(kwargs, outdir)
    except Exception:  # a pass that raises counts all its rows as failed
        traceback.print_exc()
        return None


def run_untraced(args, kwargs, checker, setup_s, outdir) -> dict:
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < args.seconds:
        p = _guarded(kwargs, outdir)
        checker.add(p)
        if p is None:
            break
        passes.append(p)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    setups = [setup_s] + _setup_probes(args.workload, args.seed)
    return {
        "wall_s": _describe([p["wall_s"] for p in passes] or [math.nan]),
        "cpu_s": _describe([p["cpu_s"] for p in passes] or [math.nan]),
        "peak_rss_mb": _describe([rss / 1024.0]),
        "setup_s": _describe(setups),
    }, {"riesz_warnings": [p["riesz_warnings"] for p in passes],
        "warnings": [p["warnings"] for p in passes]}


def run_traced(args, kwargs, checker, outdir) -> dict:
    """An untraced and a traced pass.

    The checker fails every traced row unless the traced report equals the
    untraced one outside metadata, so tracing provably changes no result.
    """
    plain = _guarded(kwargs, outdir)
    checker.add(plain)
    tracer = tracing.Tracer()
    with tracer:
        traced = _guarded(kwargs, outdir)
    checker.add(traced)
    if plain is None or traced is None:
        return {}, {}
    tracer.save(outdir / f"spans-{args.workload}-{args.seed}.npz")
    m = tracer.metrics()
    m["fourier.riesz.nonzero_mean_warnings"] = traced["riesz_warnings"]
    m["verify.report_bytes"] = (outdir / "report.json").stat().st_size
    m["render.bytes"] = sum((outdir / f).stat().st_size for f in ("report.csv", "report.svg"))
    m["trace_overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    return ({k: {"median": v, "n": 1} for k, v in m.items()},
            {"untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"]})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.ROWS))
    ap.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up, print the set-up seconds and exit")
    args = ap.parse_args(argv)

    kwargs, reference = setup(args.workload, args.seed)
    setup_s = time.perf_counter() - _T0
    if args.setup_probe:
        print(setup_s)
        return 0

    outdir = OUT / f"{args.workload}-{args.seed}-trace{args.trace}"
    outdir.mkdir(parents=True, exist_ok=True)
    checker = Checker(workloads.ROWS[args.workload], reference)
    if args.trace:
        metrics, extra = run_traced(args, kwargs, checker, outdir)
    else:
        metrics, extra = run_untraced(args, kwargs, checker, setup_s, outdir)

    env = _environment(args.seed)
    failed_frac = checker.failed / checker.attempted
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"reference={'yes' if reference is not None else 'no'}")
    for name, d in metrics.items():
        pct = "".join(f" {k}={v:.6g}" for k, v in d.items() if k.startswith("p"))
        print(f"  {name:48s} {d['median']:<14.6g} {_unit(name):6s} n={d['n']}{pct}")
    print(f"  {'failed_frac':48s} {failed_frac:<14.6g} {'ratio':6s} "
          f"({checker.failed} of {checker.attempted} rows)")
    print("env " + json.dumps(env, sort_keys=True))
    result = {"correct": checker.failed == 0, "attempted": checker.attempted,
              "failed": checker.failed,
              "metrics": {k: {"value": d["median"], "unit": _unit(k)}
                          for k, d in metrics.items()}}
    (outdir / "result.json").write_text(json.dumps(
        {**result, "failed_frac": failed_frac, "summaries": metrics, "env": env,
         "passes": extra}, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
