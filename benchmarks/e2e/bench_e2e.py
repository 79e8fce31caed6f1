"""End-to-end benchmark of the SSMDVFS reproduction.

Run from the repository root::

    python3 benchmarks/e2e/bench_e2e.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--out FILE] [--chrome FILE]

Per workload, one fresh Python process (``workers=1``, one BLAS thread)
sets up and then repeats the workload's fixed-size batch job until
``--seconds`` are used up; six more fresh processes only set up, three
before and three after it.  The command prints every metric by name
with its unit, the modelled statistics and their fingerprint, and as
its last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.

End-to-end metrics (``--trace 0``):

* ``setup_s`` — median over the set-up-only processes of the time from
  process start until imports, inputs and the verified fixture are
  ready;
* ``peak_rss_mb`` — peak resident set of the measuring process after
  its first repetition;
* ``items_per_s`` — work items per second, the mean of the three
  fastest untraced repetitions.

The host is shared: other tenants slow a run down, never speed it up.
Taking the fastest of many repetitions of identical work removes bursts
of a few seconds; the host-speed probes (:mod:`hostspeed`) remove
slowdowns that last the whole run.  ``items_per_s`` and ``setup_s`` are
therefore scaled to the reference host's speed; the record keeps the
raw values.

With ``--trace 1`` every other repetition runs under the outside-in
layer tracer (:mod:`layers`); the metrics are the per-layer ones listed
in ``BENCHMARK.json``, taken from the fastest traced repetition, plus
``trace_overhead``, the untraced rate over the traced rate (each the
mean of the three fastest) minus one.

An op is one repetition, or one set-up that failed.  It fails when it
raises, fails a check, or its fingerprint differs from the run's other
repetitions (same seed, so the outputs must be identical).  ``--out``
appends the full run record to a JSON list for ``compare.py``;
``--chrome`` writes the fastest traced repetition's coarse spans as a
Chrome trace-event file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import hostspeed
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
#: Scratch space for serving-store directories, inside the checkout.
SCRATCH = ROOT / ".bench_e2e"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Set-up-only processes before and after the measuring one.
SETUP_ONLY = 3
#: A measuring process always runs at least this many repetitions.
MIN_REPS = 3
#: Wall-clock budget of one invocation per workload, well inside the
#: three minutes a run may take.
DEADLINE_S = 150.0


# ---------------------------------------------------------------------------
# Child process: set up, then repeat the workload.
# ---------------------------------------------------------------------------


def run_rep(inputs: dict, traced: bool) -> dict:
    """One repetition; returns its record (``ok`` False on failure)."""
    rep: dict = {"ok": False, "traced": traced}
    try:
        if traced:
            with layers.Tracer() as tracer:
                outcome = workloads.execute(inputs, call=tracer.root)
            rep["layers"], rep["spans"] = tracer.table(), tracer.spans
            missing = tracer.missing(inputs["workload"])
            if missing:
                raise workloads.CheckFailed(
                    "expected layers recorded no call: " + ", ".join(missing))
        else:
            outcome = workloads.execute(inputs)
        outcome.pop("model", None)
        rep.update(outcome, ok=True)
    except workloads.CheckFailed as exc:
        rep["error"] = str(exc)
    except Exception:  # report any failure of the program as a failed op
        rep["error"] = traceback.format_exc(limit=8)
    return rep


def measure(workload: str, seed: int, size_name: str, seconds: float,
            traced: bool, setup_only: bool) -> dict:
    """Set up in this process, then read the host-speed probes once or,
    unless ``setup_only``, repeat the workload for ``seconds`` (at least
    :data:`MIN_REPS` times) with a probe reading before each repetition
    after the first."""
    sys.path.insert(0, str(SRC))
    record: dict = {"reps": [], "probes": []}
    try:
        SCRATCH.mkdir(exist_ok=True)
        inputs = workloads.prepare(workload, seed, workloads.SIZES[size_name],
                                   scratch_root=SCRATCH)
        record["ready"] = time.monotonic()
    except workloads.CheckFailed as exc:
        record["error"] = str(exc)
        return record
    except Exception:  # a broken set-up is a failed op, not a crash
        record["error"] = traceback.format_exc(limit=8)
        return record
    reps, probes = record["reps"], record["probes"]
    if setup_only:
        probes.append(hostspeed.probe())
        return record
    reps.append(run_rep(inputs, False))
    # Peak RSS of the workload alone, before the memory probe allocates.
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    last_s = time.monotonic() - record["ready"]
    while True:
        elapsed = time.monotonic() - record["ready"]
        if elapsed > DEADLINE_S * 0.6 or (len(reps) >= MIN_REPS
                                          and elapsed + last_s > seconds):
            return record
        start = time.monotonic()
        probes.append(hostspeed.probe())
        reps.append(run_rep(inputs, traced and len(reps) % 2 == 1))
        last_s = time.monotonic() - start


# ---------------------------------------------------------------------------
# Orchestration: the processes one after another, then aggregation.
# ---------------------------------------------------------------------------


def spawn(workload: str, seed: int, size_name: str, seconds: float | None,
          traced: bool, timeout_s: float) -> dict:
    """Run :func:`measure` in a fresh process and parse its record;
    ``seconds`` None sets up only."""
    command = [sys.executable, str(Path(__file__).resolve()), "--unit",
               workload, "--seed", str(seed), "--size", size_name,
               "--trace", "1" if traced else "0"]
    command += (["--setup-only"] if seconds is None
                else ["--seconds", str(seconds)])
    env = dict(os.environ, **{name: "1" for name in THREAD_VARS})
    start = time.monotonic()
    try:
        proc = subprocess.run(command, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        return {"reps": [], "error": f"timed out after {timeout_s:.0f} s"}
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"reps": [], "error": f"exited {proc.returncode}: "
                                     f"{proc.stderr.strip()[-2000:]}"}
    if "ready" in record:
        record["setup_s"] = record.pop("ready") - start
    return record


def _rate(rep: dict) -> float:
    return rep["items"] / rep["unit_s"]


def derived(rep: dict) -> dict[str, float]:
    """Layer values computed from a traced repetition's counts and its
    campaign stage timings rather than recorded by one wrapper."""
    probe = rep["layers"]["gpu.interval_model.SolutionCache.probe_batch"]
    keys = probe.get("keys", 0)
    stages = rep["stages"]
    return {
        "gpu.interval_model.SolutionCache.hit_ratio":
            1.0 - probe.get("missing", 0) / keys if keys else 0.0,
        "fleet.scheduler.simulate_s": stages.get("fleet-simulate", 0.0),
        "fleet.scheduler.replay_s": stages.get("fleet-replay", 0.0),
        "serve.runtime.telemetry_s": stages.get("serve-telemetry", 0.0),
    }


def aggregate(workload: str, seed: int, processes: list[dict],
              measuring: dict, spec: dict, traced: bool) -> dict:
    """The run's full record, contract fields included."""
    reps = measuring["reps"]
    prints = Counter(rep["fingerprint"] for rep in reps if rep["ok"])
    fingerprint = prints.most_common(1)[0][0] if prints else None
    for rep in reps:
        if rep["ok"] and rep["fingerprint"] != fingerprint:
            rep["ok"] = False
            rep["error"] = (f"fingerprint {rep['fingerprint'][:16]} differs "
                            f"from the run's {fingerprint[:16]}")
    errors = [p["error"] for p in processes if "setup_s" not in p]
    errors += [rep["error"] for rep in reps if not rep["ok"]]
    plain = [rep for rep in reps if rep["ok"] and not rep["traced"]]
    fastest_traced = max((rep for rep in reps if rep["ok"] and rep["traced"]),
                         key=_rate, default=None)
    best = hostspeed.fastest([_rate(rep) for rep in plain])
    host = hostspeed.speed(measuring.get("probes", []))
    # Each set-up-only process reads the probes right after its set-up,
    # so its sample is scaled by the host speed of that moment.
    setups = [p["setup_s"] * hostspeed.speed(p["probes"])
              for p in processes if p is not measuring and "setup_s" in p]
    setup = statistics.median(setups) if setups else float("nan")
    metrics: dict[str, dict] = {}
    if traced:
        flat = {}
        if fastest_traced:
            flat = {f"{layer}.{key}": value
                    for layer, payload in fastest_traced["layers"].items()
                    for key, value in payload.items()}
            flat.update(derived(fastest_traced))
        flat["trace_overhead"] = best / hostspeed.fastest(
            [_rate(rep) for rep in reps if rep["ok"] and rep["traced"]]) - 1.0
        for entry in spec["per_layer"]:
            metrics[entry["name"]] = {"value": flat.get(entry["name"],
                                                        float("nan")),
                                      "unit": entry["unit"]}
    else:
        values = {"setup_s": setup,
                  "peak_rss_mb": measuring.get("rss_mb", float("nan")),
                  "items_per_s": best / host}
        for entry in spec["end_to_end"]:
            metrics[entry["name"]] = {"value": values[entry["name"]],
                                      "unit": entry["unit"]}
    attempted = len(reps) + sum("setup_s" not in p for p in processes)
    record = {
        "workload": workload, "seed": seed, "trace": traced,
        "correct": not errors and bool(plain), "attempted": max(attempted, 1),
        "failed": len(errors), "metrics": metrics,
        "fingerprint": fingerprint,
        "modelled": next((r["modelled"] for r in reps if r["ok"]), None),
        "errors": errors,
        "host_speed": host, "raw_items_per_s": best,
        "setup_samples": [p.get("setup_s") for p in processes],
        "rates": [round(_rate(rep), 4) for rep in plain],
        "reps": [{key: value for key, value in rep.items()
                  if key not in ("layers", "spans", "modelled")}
                 for rep in reps],
    }
    if fastest_traced:
        record["layers"] = fastest_traced["layers"]
        record["derived"] = derived(fastest_traced)
        record["top_self"] = layers.top_self(fastest_traced["layers"])
        record["spans"] = fastest_traced["spans"]
    return record


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 size_name: str, spec: dict) -> dict:
    """Set-up-only processes around one measuring process."""
    start = time.monotonic()

    def run(measure_s: float | None) -> dict:
        remaining = DEADLINE_S - (time.monotonic() - start)
        return spawn(workload, seed, size_name, measure_s, traced,
                     max(remaining, 1.0))

    processes = [run(None) for _ in range(SETUP_ONLY)]
    measuring = run(seconds)
    processes += [measuring] + [run(None) for _ in range(SETUP_ONLY)]
    return aggregate(workload, seed, processes, measuring, spec, traced)


def chrome_events(index: int, record: dict) -> list[dict]:
    """Chrome trace events of one record's fastest traced repetition."""
    if not record.get("spans"):
        return []
    meta = {"name": "process_name", "ph": "M", "pid": index,
            "args": {"name": record["workload"]}}
    return [meta] + [{**span, "pid": index} for span in record["spans"]]


def render(record: dict) -> str:
    """Human-readable summary of one workload run."""
    rates = record["rates"]
    lines = [f"workload {record['workload']}  seed {record['seed']}  "
             f"trace {int(record['trace'])}  ops {record['attempted']}  "
             f"failed {record['failed']}  "
             f"fingerprint {(record['fingerprint'] or '-')[:16]}"]
    lines += [f"  FAILED: {error.strip()}" for error in record["errors"]]
    for name, metric in record["metrics"].items():
        lines.append(f"  {name:58s} {metric['value']:14.6g} {metric['unit']}")
    if rates:
        lines.append(f"  untraced repetitions: {len(rates)}, "
                     f"{workloads.ITEMS[record['workload']]} per host s "
                     f"median {statistics.median(rates):.6g}, "
                     f"best {max(rates):.6g}; host speed "
                     f"{record['host_speed']:.3f} of the reference")
    lines.append(f"  modelled: {json.dumps(record['modelled'])}")
    for name, self_s, share in record.get("top_self", []):
        lines.append(f"  top self time: {name:50s} {self_s:9.4f} s "
                     f"{share:6.1%}")
    return "\n".join(lines)


def append_record(path: Path, record: dict) -> None:
    """Append ``record`` to the JSON list in ``path``."""
    records = json.loads(path.read_text()) if path.exists() else []
    records.append({key: value for key, value in record.items()
                    if key != "spans"})
    path.write_text(json.dumps(records, indent=1) + "\n")


def _trace_flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise argparse.ArgumentTypeError("--trace takes 0 or 1")
    return text == "1"


def parse_args(argv: list[str] | None, names: tuple[str, ...]):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the SSMDVFS reproduction.")
    parser.add_argument("--workload", nargs="+", choices=names,
                        default=list(names))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=_trace_flag, nargs="?", const=True,
                        default=False)
    parser.add_argument("--out", type=Path, default=None,
                        help="append each run record to this JSON list")
    parser.add_argument("--chrome", type=Path, default=None,
                        help="write the traced spans as a Chrome trace")
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="repetition size; 'small' is the test suite's")
    parser.add_argument("--unit", choices=names, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv, layers.WORKLOADS)
    if args.unit:
        print(json.dumps(measure(args.unit, args.seed, args.size,
                                 args.seconds or 0.0, args.trace,
                                 args.setup_only)))
        return 0
    if not (SRC / "repro" / "__init__.py").is_file() or not BENCHMARK.is_file():
        print(f"bench_e2e: needs the repository checkout ({SRC} and "
              f"{BENCHMARK})", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    seconds = (args.seconds if args.seconds is not None
               else spec["run_seconds"])
    events: list[dict] = []
    all_correct = True
    for index, workload in enumerate(args.workload):
        record = run_workload(workload, args.seed, seconds, args.trace,
                              args.size, spec)
        all_correct &= record["correct"]
        events += chrome_events(index, record)
        if args.out:
            append_record(args.out, record)
        print(render(record))
        print(json.dumps({key: record[key] for key in
                          ("correct", "attempted", "failed", "metrics")}),
              flush=True)
    if args.chrome and events:
        args.chrome.write_text(json.dumps(
            {"traceEvents": events, "displayTimeUnit": "ms"}) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
