"""paperbench: the paper's evaluation workloads, timed end to end and per layer.

Run from the root of a checkout::

    python3 paperbench/run.py --workload paper_defrag --seed 1 --seconds 30 --trace 0

Workloads (see ``paperbench/workloads.py`` and ``BENCHMARK.json``):

* ``paper_defrag``: ``defrag_database`` at scale 1.0, MS Manners, serial,
  each seed paired with a ``not running`` reference (paper Fig 3).
* ``paper_grovel``: ``groveler_setup`` at scale 1.0, MS Manners, serial,
  each seed paired with an installer-alone reference (paper Fig 4).
* ``sweep_small``: Fig 3's five-mode sweep at scale 0.05 over two
  ``ParallelRunner`` workers, regulated trials with decision telemetry.

A run sets up (imports ``repro``, one small warm-up trial per process, and
on ``sweep_small`` the warm worker pool), then repeats one cycle of trials
over seeds derived from ``--seed`` until ``--seconds`` have passed.  The
first cycle always completes; its simulated outputs form the
``results_digest`` and every later repeat must reproduce them exactly.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the first
cycle untraced and then traced, checks the two digests agree, prints the
per-layer metrics and the tracing overhead, and writes the spans to
``.paperbench/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if not __package__:  # run as a script: make the package importable
    sys.path.insert(0, str(ROOT))

from paperbench import tracing  # noqa: E402
from paperbench import workloads as wl  # noqa: E402
OUT_DIR = ".paperbench"

#: Variables that change what ``repro`` runs; the benchmark pins all of them.
WORKLOAD_ENV = ("REPRO_SCALE", "REPRO_TRIALS", "REPRO_JOBS", "REPRO_CACHE", "REPRO_ENGINE")
#: Fresh processes that repeat the set-up, so ``setup_s`` is a median.
SETUP_PROBES = 6
#: Scale of the per-process warm-up trial: large enough to build the
#: sign-test tables, small enough to cost a fraction of a second.
WARMUP_SCALE = 0.05
WARMUP_SEED = 7


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr, exit code 2."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up only, print the set-up time and exit")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def check_environment(environ) -> None:
    """Refuse to run with any workload-changing ``REPRO_*`` variable set."""
    found = sorted(name for name in WORKLOAD_ENV if name in environ)
    if found:
        raise BenchError(
            f"{', '.join(found)} set; the benchmark pins its own workload "
            "settings, unset these and run again"
        )


def fix_hash_seed() -> None:
    """Re-execute with ``PYTHONHASHSEED=0``.

    String hashing is randomised per process and moves host time between
    processes by several percent; pinning it removes that noise without
    touching the simulation, which never depends on hash order.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def import_program():
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro.experiments.scenarios  # noqa: F401
        from repro.analysis.parallel import ParallelRunner  # noqa: F401
    except ImportError as exc:
        raise BenchError(f"cannot import the program from {ROOT / 'src'}: {exc}") from exc


def host_record() -> dict:
    digest = hashlib.sha256()
    src = ROOT / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "engine": tracing.engine_class().__name__,
        "commit": _commit(),
        "source_sha256": digest.hexdigest()[:16],
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def unit_of(layer_metric: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    for suffix, unit in (("per_s", "1/s"), ("_s", "s"), ("_frac", "ratio"),
                         ("_ratio", "ratio"), ("overhead", "ratio")):
        if layer_metric.endswith(suffix):
            return unit
    return "count"


def quartile_summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Bench:
    """One run of one workload."""

    def __init__(self, workload, args) -> None:
        self.w = workload
        self.args = args
        self.seed_base = 1000 * args.seed
        self.runner = None
        self.inline = None
        self.warm: list[dict] = []
        self.pool_start_s = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.mismatches: list[str] = []

    # -- set-up ---------------------------------------------------------------
    def set_up(self) -> None:
        if self.w.jobs == 1:
            self.warm = [wl.warm_up(self.w.scenario, WARMUP_SCALE, WARMUP_SEED)]
            return
        from functools import partial

        from repro.analysis.parallel import ParallelRunner

        wl.arm_warm_barrier(self.w.jobs)
        start = time.perf_counter()
        self.runner = ParallelRunner(jobs=self.w.jobs, cache=None)
        self.warm = self.runner.run(
            partial(wl.warm_up_worker, self.w.scenario, WARMUP_SCALE),
            trials=self.w.jobs, seed_base=WARMUP_SEED,
        )
        wall = time.perf_counter() - start
        self.pool_start_s = wall - max(w["trial_s"] for w in self.warm)
        self.inline = ParallelRunner(jobs=1, cache=None)

    def close(self) -> None:
        for runner in (self.runner, self.inline):
            if runner is not None:
                runner.close()

    # -- executing trials -------------------------------------------------------
    def batches(self, specs):
        """Groups of specs that run together: one mode at a time on a pool."""
        if self.w.jobs == 1:
            return [[s] for s in specs]
        groups: dict = {}
        for s in specs:
            groups.setdefault(s.mode, []).append(s)
        return list(groups.values())

    def execute(self, batch, traced: bool, runner=None, spans: bool = True) -> list[dict]:
        runner = runner or self.runner
        if runner is None:
            outs = [wl.run_trial(s, traced, spans) for s in batch]
        else:
            # specs_for gives each mode a contiguous seed range.
            trial = wl.runner_trial(self.w, batch[0].mode, traced, spans)
            outs = runner.run(trial, trials=len(batch), seed_base=batch[0].seed)
        for out in outs:
            self.attempted += 1
            why = wl.trial_failure(out)
            if why is not None:
                self.failures.append(f"{out['spec']}: {why}")
        return outs

    def run_cycle(self, specs, traced: bool, deadline=None, runner=None,
                  spans: bool = True) -> list[dict]:
        outs: list[dict] = []
        for batch in self.batches(specs):
            if deadline is not None and time.perf_counter() >= deadline:
                break
            outs.extend(self.execute(batch, traced, runner, spans))
        return outs

    def first_cycle_specs(self):
        specs = wl.specs_for(self.w, self.seed_base)
        if self.w.reference is None:
            return specs
        refs = wl.specs_for(self.w, self.seed_base, modes=(self.w.reference,))
        by_seed = {r.seed: r for r in refs}
        # Each seed's regulated trial is followed by its reference run.
        return [x for s in specs for x in (s, by_seed[s.seed])]

    def measured(self, outs):
        return [o for o in outs if o["spec"].mode in self.w.modes]

    def check_repeat(self, reference: dict, outs, what: str) -> None:
        """Every repeat must reproduce the first cycle's outputs exactly."""
        for out in outs:
            first = reference.get(out["spec"])
            if first is not None and wl.digest_material(first) != wl.digest_material(out):
                self.mismatches.append(f"{what} of {out['spec']} differs from the first run")

    # -- the measured part --------------------------------------------------------
    def measure(self) -> dict:
        first_specs = self.first_cycle_specs()
        measured_specs = wl.specs_for(self.w, self.seed_base)
        traced = bool(self.args.trace)
        start = time.perf_counter()
        deadline = start + self.args.seconds
        first = self.run_cycle(first_specs, traced=False)
        first_wall = time.perf_counter() - start
        by_spec = {o["spec"]: o for o in first}
        outs = list(first)
        traced_first: list[dict] = []
        traced_outs: list[dict] = []
        if traced:
            traced_first = self.run_cycle(first_specs, traced=True)
            self.check_repeat(by_spec, traced_first, "traced run")
            traced_outs = list(traced_first)
        while time.perf_counter() < deadline:
            repeat = self.run_cycle(measured_specs, traced=False, deadline=deadline)
            self.check_repeat(by_spec, repeat, "repeat")
            outs.extend(repeat)
            if traced:
                # Repeats only add samples for the overhead; spans stay with
                # the first traced cycle.
                repeat = self.run_cycle(measured_specs, traced=True, deadline=deadline,
                                        spans=False)
                self.check_repeat(by_spec, repeat, "traced repeat")
                traced_outs.extend(repeat)
        wall = time.perf_counter() - start
        result = {
            "first": first, "outs": outs, "wall": wall, "first_wall": first_wall,
            "traced_first": traced_first, "traced_outs": traced_outs,
            "digest": wl.results_digest(first),
        }
        if traced_first:
            result["traced_digest"] = wl.results_digest(traced_first)
            if result["traced_digest"] != result["digest"]:
                self.mismatches.append("traced results_digest differs from untraced")
        if self.inline is not None:
            inline = self.run_cycle(first_specs, traced=False, runner=self.inline)
            result["inline_digest"] = wl.results_digest(inline)
            if result["inline_digest"] != result["digest"]:
                self.mismatches.append(
                    f"{self.w.jobs}-worker results_digest differs from the inline run")
        return result

    def peak_rss_mb(self, outs) -> float:
        workers: dict[int, int] = {}
        me = os.getpid()
        for o in [*outs, *self.warm]:
            if o["pid"] != me:
                workers[o["pid"]] = max(workers.get(o["pid"], 0), o["rss_kb"])
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return (own + sum(workers.values())) / 1024.0

    def parallel_metrics(self, first: list[dict], first_wall: float) -> dict:
        """Parent-side cost of the first cycle: time no trial was running."""
        intervals = sorted((o["start"], o["end"]) for o in first)
        covered = 0.0
        cursor = float("-inf")
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
            cursor = max(cursor, hi)
        busy = sum(o["host_s"] for o in first)
        return {
            "parallel.pool_start_s": self.pool_start_s,
            "parallel.dispatch_s": max(0.0, first_wall - covered) / len(first),
            "parallel.worker_busy_frac": busy / (self.w.jobs * first_wall),
        }


def setup_probes(args) -> list[float]:
    """Set-up time of fresh processes running the same workload set-up."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        try:
            done = subprocess.run(cmd, cwd=os.getcwd(), capture_output=True, text=True,
                                  timeout=60, check=False)
        except subprocess.TimeoutExpired as exc:
            raise BenchError("set-up probe did not finish in 60 s") from exc
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed: {done.stderr.strip()}")
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def write_spans(path: Path, outs: list[dict]) -> int:
    """Spans of ``outs`` as gzipped JSON lines; returns the span count."""
    count = 0
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
        for trial, out in enumerate(outs):
            spans = out["spans"]
            cols = [array(code, spans[key]) for code, key in
                    (("q", "id"), ("q", "parent"), ("H", "name"), ("d", "start"), ("d", "end"))]
            spec = out["spec"]
            fh.write(json.dumps({"trial": trial, "pid": out["pid"], "scenario": spec.scenario,
                                 "mode": spec.mode, "seed": spec.seed,
                                 "names": spans["names"],
                                 "columns": ["id", "parent", "name", "start", "end"]}) + "\n")
            for row in zip(*cols):
                fh.write(json.dumps(row) + "\n")
            count += len(cols[0])
    return count


def report(args, workload, bench, result, setup_s, host) -> dict:
    outs = result["outs"]
    samples = [o["host_s"] for o in bench.measured(outs)]
    sim = wl.simulated_metrics(result["first"])
    failed = len(bench.failures)
    metrics: dict[str, tuple[float, str]] = {}
    q1, p50, q3 = quartile_summary(samples)
    details: dict = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace, "host": host,
        "results_digest": result["digest"], "trial_samples": len(samples),
        "trial_s_quartiles": [q1, p50, q3], "failures": bench.failures,
        "mismatches": bench.mismatches,
    }
    if len(samples) >= 100:
        details["trial_s.p90"] = statistics.quantiles(samples, n=10)[-1]
    if not args.trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "trial_s.p50": (p50, "s"),
            "trials_per_s": (len(outs) / result["wall"], "1/s"),
            "peak_rss_mb": (bench.peak_rss_mb(outs), "MB"),
            "hi_slowdown": (sim["hi_slowdown"], "x"),
            "li_sim_s": (sim["li_sim_s"], "s"),
            "completed_frac": (1.0 - failed / max(1, bench.attempted), "ratio"),
        }
    else:
        measured_traced = bench.measured(result["traced_first"])
        measured_first = bench.measured(result["first"])
        layer = wl.layer_metrics(measured_traced, measured_first)
        layer.update(bench.parallel_metrics(result["first"], result["first_wall"]))
        layer["core.signtest.table_build_s"] = statistics.median(
            w["table_build_s"] for w in bench.warm)
        traced_samples = [o["host_s"] for o in bench.measured(result["traced_outs"])]
        layer["trace.overhead"] = statistics.median(traced_samples) / p50 - 1.0
        metrics = {name: (value, unit_of(name)) for name, value in layer.items()}
        out_dir = Path(OUT_DIR)
        out_dir.mkdir(exist_ok=True)
        span_path = out_dir / f"spans-{workload.name}.jsonl.gz"
        details["spans_file"] = str(span_path)
        details["spans_written"] = write_spans(span_path, result["traced_first"])
        details["traced_results_digest"] = result.get("traced_digest")
        details["missing_entry_points"] = sorted(
            {m for o in result["traced_first"] for m in o.get("missing_entry_points", [])})
    for name, (value, unit) in metrics.items():
        if value is None:  # e.g. every trial of a mode failed
            bench.mismatches.append(f"{name} could not be computed")
            metrics[name] = (0.0, unit)
    if "inline_digest" in result:
        details["inline_results_digest"] = result["inline_digest"]
    details["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    say = print
    say(f"paperbench {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    say("host: " + json.dumps(host, sort_keys=True))
    say(f"trials: {bench.attempted} attempted, {failed} failed "
        f"(failed_frac {failed / max(1, bench.attempted):.4f}); "
        f"{len(samples)} timed samples of trial_s, quartiles "
        f"{q1:.4f} / {p50:.4f} / {q3:.4f} s")
    say(f"results_digest: {result['digest']}"
        + (f"  traced: {result['traced_digest']}" if "traced_digest" in result else "")
        + (f"  inline: {result['inline_digest']}" if "inline_digest" in result else ""))
    if sim["hi_slowdown"] is not None and workload.paper_slowdown is not None:
        err = sim["hi_slowdown"] / workload.paper_slowdown - 1.0
        say(f"hi_slowdown {sim['hi_slowdown']:.4f} x vs paper {workload.paper_figure} "
            f"{workload.paper_slowdown:.2f} x: error {err:+.1%}")
    if "trial_s.p90" in details:
        say(f"trial_s.p90 {details['trial_s.p90']:.6f} s over {len(samples)} samples")
    for reason in bench.failures[:10]:
        say(f"FAILED {reason}")
    for reason in bench.mismatches[:10]:
        say(f"MISMATCH {reason}")
    for name, (value, unit) in metrics.items():
        say(f"{name} {value:.6g} {unit}")
    details_path = Path(OUT_DIR) / f"{workload.name}-trace{args.trace}.json"
    details_path.parent.mkdir(exist_ok=True)
    details_path.write_text(json.dumps(details, indent=1, sort_keys=True) + "\n")
    return {
        "correct": failed == 0 and not bench.mismatches,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        check_environment(os.environ)
        fix_hash_seed()
        import_program()
        if args.workload not in wl.WORKLOADS:
            raise BenchError(
                f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
        workload = wl.WORKLOADS[args.workload]
        bench = Bench(workload, args)
        try:
            bench.set_up()
            setup_s = time.perf_counter() - _T0
            if args.setup_probe:
                print(json.dumps({"setup_s": setup_s}))
                return 0
            result = bench.measure()
        finally:
            bench.close()
        setup_s = statistics.median([setup_s, *setup_probes(args)])
        host = host_record()
        summary = report(args, workload, bench, result, setup_s, host)
    except BenchError as exc:
        print(f"paperbench: error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
