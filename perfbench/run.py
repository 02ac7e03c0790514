#!/usr/bin/env python3
"""tmcda benchmark: leave-one-out and sweep workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload loo-cv --seed 1 --seconds 25 --trace 0

The seed makes the inputs: input i is a synthetic network generated from
(seed, i), and the program only ever sees those. A run first sets up seven
times (a fresh interpreter importing the package, plus preparing input 0;
the median is ``setup_s``), makes one untimed warm-up call on input 0, then
calls the workload's entry point on inputs 0, 1, 2, ... in this process with
jobs=1. The number of inputs is ``--seconds`` over the workload's typical
call time (halved when tracing), so a seed always gets the same inputs, and
a run lasts about ``--seconds`` on the machine the call times were taken on.

--trace 0  reports the end-to-end metrics of those untraced calls.
           Call times are given in reference units: every 0.1 s of a call a
           signal handler times a short fixed kernel of small numpy
           operations that does not touch the package, and the call's
           ``run_ref`` is its own seconds (kernel time taken out) times the
           mean kernel speed (runs per second): the call's length in
           kernel runs. On a shared host whose speed moves by half within
           seconds, this varies several times less than seconds do.
--trace 1  also repeats each call under the outside-in tracer and reports
           per-layer metrics per traced call, the tracing overhead against
           the untraced calls, and writes the spans to the run's directory.

Checks: input 0's report matches the warm-up's byte for byte, each traced
report matches its untraced one, every exit code is 0, every scored error is
finite with MAE <= RMSE, the pooled MAE beats a constant predictor, and (when
tracing) the self times add up to the traced call time. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the lines before it give the report digest, the errors and the
environment. ``--workload all`` runs every workload untraced and traced, each
in a child process.
"""


from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
SAMPLE_INTERVAL_S = 0.1
SAMPLE_REPEATS = 10     # one sample of the reference kernel: about 4 ms
MIN_INPUTS = 2          # also the input count of the smoke mode
WORKLOAD_NAMES = ("loo-cv", "loo-variants", "alpha-sweep")

END_TO_END_UNITS = {
    "setup_s": "s", "run_ref": "ref", "folds_per_ref": "1/ref", "peak_rss_mb": "MB", "fold_ok_rate": "ratio",
}

# (span or counter name, unit); self times come from spans, the rest from counters.
LAYER_METRICS = (
    ("lasso.cv.self_s", "s"), ("lasso.cv.calls", "count"),
    ("lasso.fit.self_s", "s"), ("lasso.fit.calls", "count"), ("lasso.fit.sweeps", "count"),
    ("lasso.fit.unconverged", "count"),
    ("itml.constraints.self_s", "s"), ("itml.constraints.pairs", "count"),
    ("itml.fit.self_s", "s"), ("itml.fit.calls", "count"), ("itml.fit.passes", "count"),
    ("itml.fit.projections", "count"), ("itml.fit.unconverged", "count"),
    ("itml.match.self_s", "s"),
    ("tree.fit.self_s", "s"), ("tree.fit.calls", "count"), ("tree.fit.nodes", "count"),
    ("tree.predict.self_s", "s"), ("tree.predict.calls", "count"), ("tree.predict.rows", "count"),
    ("boosting.fit.self_s", "s"), ("boosting.fit.stages", "count"),
    ("boosting.predict.self_s", "s"),
    ("gmm.augment.self_s", "s"), ("gmm.fit.self_s", "s"), ("gmm.fit.em_iters", "count"),
    ("gmm.fit.unconverged", "count"), ("gmm.sample.self_s", "s"),
    ("dataset.split.self_s", "s"), ("dataset.load.self_s", "s"),
    ("pipeline.self_s", "s"),
    ("lasso.cv.unique_ratio", "ratio"), ("lasso.fit.unique_ratio", "ratio"),
    ("itml.fit.unique_ratio", "ratio"), ("gmm.fit.unique_ratio", "ratio"),
    ("trace.run_s", "s"), ("trace.overhead", "ratio"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs and settings, for tests")
    p.add_argument("--work-dir", type=Path, default=ROOT / ".perfbench",
                   help="where inputs, outputs, spans and the result record go")
    return p.parse_args(argv)


def git_commit() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a repository."""
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
    return "unknown"


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        pass
    threads = {k: os.environ.get(k) for k in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
    return {
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_threads": threads, "nproc": os.cpu_count(), "machine": platform.machine(),
        "commit": git_commit(),
    }


def reference_kernel() -> None:
    """A fixed mix of small numpy operations; its time is the machine's speed at the moment.

    Like the package's inner loops: coordinate-descent sweeps, sorted
    cumulative split scores and a small Cholesky factorization, on fixed
    arrays. It calls nothing in ``tmcda``, so a change to the package leaves
    it alone.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    X = rng.standard_normal((128, 12))
    y = rng.standard_normal(128)
    w = rng.random(128) + 0.1
    gram = X.T @ X + np.eye(12)
    for _ in range(SAMPLE_REPEATS):
        beta, resid = np.zeros(12), y.copy()
        for j in range(12):
            old = beta[j]
            rho = X[:, j] @ resid / 128 + old
            beta[j] = np.sign(rho) * max(abs(rho) - 0.01, 0.0)
            resid -= X[:, j] * (beta[j] - old)
        for j in range(12):
            order = np.argsort(X[:, j], kind="stable")
            cw = np.cumsum(w[order])
            cwr = np.cumsum((w * y)[order])
            np.argmax(cwr * cwr / cw)
        np.linalg.cholesky(gram)


class SpeedSampler:
    """Times the reference kernel every SAMPLE_INTERVAL_S seconds while a call runs.

    The samples run in a SIGALRM handler, between the program's bytecodes,
    so they see the machine at the moments the call does. A call too short
    for the timer gets one sample at its end.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []     # (start, end) of each sample

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        reference_kernel()
        self.samples.append((start, time.perf_counter()))

    def timed(self, call):
        """(outcome, the call's own seconds, its length in kernel runs)."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            start = time.perf_counter()
            out = call()
            end = time.perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        if not self.samples:
            self._sample()
        own = end - start - sum(b - a for a, b in self.samples if start <= a and b <= end)
        # Samples are spread evenly over time, so the mean of their speeds is
        # the machine's mean speed over the call.
        return out, own, own * statistics.fmean(1.0 / (b - a) for a, b in self.samples)


def import_in_fresh_interpreter() -> None:
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import tmcda.cli"
    subprocess.run([sys.executable, "-c", code], check=True)


def setup(workload, args, work: Path):
    """Import in a fresh interpreter and prepare the first input; median of repeats is setup_s."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        import_in_fresh_interpreter()
        call = workload.prepare_input(args.seed, 0, work, args.smoke)
        times.append(time.perf_counter() - start)
    return call, statistics.median(times)


def summarize(outcomes, checks: list) -> dict:
    """Check every scored row and pool the errors over all calls."""
    rows = [r for out in outcomes for r in out.rows]
    scored = [r for r in rows if r.mae is not None]
    for r in scored:
        if not (math.isfinite(r.mae) and math.isfinite(r.rmse) and 0.0 <= r.mae <= r.rmse * (1 + 1e-12)):
            checks.append(f"bad error pair {r}")
    if not scored:
        checks.append("no row scored")
        return {"attempted": len(rows), "scored": 0}
    mae = statistics.fmean(r.mae for r in scored)
    floor = statistics.fmean(r.baseline_mae for r in scored)
    if not mae < floor:
        checks.append(f"mean MAE {mae:.4f} does not beat the constant predictor's {floor:.4f}")
    return {"attempted": len(rows), "scored": len(scored), "mae": mae,
            "rmse": statistics.fmean(r.rmse for r in scored), "constant_mae": floor}


def input_count(workload, args) -> int:
    """Inputs for about ``--seconds`` of calls; a traced run calls each input twice."""
    if args.smoke:
        return MIN_INPUTS
    return max(MIN_INPUTS, round(args.seconds / (workload.call_s * (1 + args.trace))))


def measure(workload, args, work: Path, first_call, checks: list):
    """Calls on inputs 0, 1, 2, ..., after one untimed warm-up call.

    With tracing, each input is called untraced and then traced, and the two
    reports must match. Input 0's report must also match the warm-up's.
    Without tracing, each call is also timed in reference units.
    """
    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    sampler = None if args.trace else SpeedSampler()
    warm = first_call()
    reference_kernel()
    untraced, in_ref, traced, outcomes = [], [], [], []
    call = first_call
    for index in range(input_count(workload, args)):
        if index:
            call = workload.prepare_input(args.seed, index, work, args.smoke)
        if sampler is None:
            t0 = time.perf_counter()
            out = call()
            untraced.append(time.perf_counter() - t0)
        else:
            out, seconds, ref = sampler.timed(call)
            untraced.append(seconds)
            in_ref.append(ref)
        if out.exit_code != 0:
            checks.append(f"input {index}: exit code {out.exit_code}")
        if index == 0 and out.text != warm.text:
            checks.append("input 0: report differs from the warm-up call's")
        if tracer is not None:
            with tracer:
                begin = len(tracer.spans)
                traced_out = tracer.call(call)
            traced.append(tracer.spans[begin].end - tracer.spans[begin].start)
            if traced_out.text != out.text:
                checks.append(f"input {index}: traced report differs from the untraced one")
        outcomes.append(out)
    return outcomes, untraced, in_ref, traced, tracer


def layer_metrics(tracer, untraced, traced) -> dict:
    """Per-layer metrics per traced call; self times plus pipeline.self_s add up to trace.run_s."""
    n = len(traced)
    self_s = tracer.self_times()
    counters = tracer.counters
    out = {}
    for name, unit in LAYER_METRICS:
        if name.endswith(".self_s"):
            value = self_s.get(name[: -len(".self_s")], 0.0) / n
        elif name.endswith(".unique_ratio"):
            probe = name[: -len(".unique_ratio")]
            calls = counters[f"{probe}.calls"]
            value = tracer.distinct[probe] / calls if calls else 1.0
        elif name == "trace.run_s":
            value = sum(traced) / n
        elif name == "trace.overhead":
            value = sum(traced) / sum(untraced) - 1.0
        else:
            value = counters[name] / n
        out[name] = {"value": value, "unit": unit}
    return out


def run_one(args) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    work = args.work_dir / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment()

    first_call, setup_s = setup(workload, args, work)
    checks: list[str] = []
    outcomes, untraced, in_ref, traced, tracer = measure(workload, args, work, first_call, checks)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    q = summarize(outcomes, checks)
    digest = hashlib.sha256("".join(o.text for o in outcomes).encode()).hexdigest()

    if tracer is not None:
        metrics = layer_metrics(tracer, untraced, traced)
        self_total = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
        run_total = metrics["trace.run_s"]["value"]
        if abs(self_total - run_total) > 1e-9 * max(1.0, run_total):
            checks.append(f"self times add up to {self_total}, traced run time is {run_total}")
        tracer.write_spans(work / "spans.jsonl")
    else:
        metrics = {
            "setup_s": setup_s,
            "run_ref": statistics.fmean(in_ref),
            "folds_per_ref": q["scored"] / sum(in_ref),
            "peak_rss_mb": peak_rss_mb,
            "fold_ok_rate": q["scored"] / q["attempted"] if q["attempted"] else 0.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}

    for message in checks:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {len(outcomes)} inputs, "
          f"{q['scored']}/{q['attempted']} rows scored, MAE {q.get('mae', math.nan):.4f} "
          f"RMSE {q.get('rmse', math.nan):.4f} (constant predictor MAE {q.get('constant_mae', math.nan):.4f})")
    print(f"# call seconds: mean {statistics.fmean(untraced):.4f}, median {statistics.median(untraced):.4f}, "
          f"max {max(untraced):.4f}; {q['scored'] / sum(untraced):.4f} scored rows per second")
    if in_ref:
        print(f"# call in reference units: mean {statistics.fmean(in_ref):.2f}, "
              f"median {statistics.median(in_ref):.2f}, max {max(in_ref):.2f}")
    print(f"# report sha256 {digest}")
    for name, m in metrics.items():
        print(f"#   {name:<26} {m['value']:.6g} {m['unit']}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
              "env": env, "report_sha256": digest, "quality": q, "untraced_call_s": untraced, "untraced_call_ref": in_ref,
              "traced_call_s": traced, "checks_failed": checks, "metrics": metrics}
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": not checks, "attempted": q["attempted"],
                      "failed": q["attempted"] - q["scored"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own child process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
                   "--work-dir", str(args.work_dir)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                return proc.returncode or 1
            result = json.loads(lines[-1])
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tmcda" / "__init__.py").is_file():
        print(f"error: no tmcda sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
