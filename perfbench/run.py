"""Closed-loop benchmark of the elprov command line, one client, in process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload entail-k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each request is one call of ``elprov.cli.main(argv)`` with stdout and
stderr captured: one CLI command minus interpreter start-up. The next
request starts only when the previous one has returned. Every request
has its own freshly generated ontology file, as with one process per
command, so a cache kept across calls cannot show a gain CLI users would
never see. Every answer is checked against a reference the reasoner did
not produce (see ``checks.py``).

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` every other request runs with the outside-in tracer
installed and the last line reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
WARMUP_SEED = 0
# machine_probe() right after a request on a quiet machine of the kind the
# baseline in README.md was measured on (2-vCPU Intel Xeon VM, Python 3.11);
# times are reported at this speed
PROBE_REFERENCE_S = 375e-6
TAIL_PERCENTILE = 90  # at least ten samples lie beyond it once a run has 100 requests
# requests generated during set-up; a faster program gets more, generated
# outside the timed part of the loop
POOL = {"entail-k": 400, "relevant": 400, "query": 200, "ingest": 180}


def load_cli():
    """Import elprov from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "elprov" / "cli.py").is_file():
        raise SystemExit(f"error: no elprov sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import elprov.cli

    if SRC not in Path(elprov.cli.__file__).resolve().parents:
        raise SystemExit(f"error: imported elprov from {elprov.cli.__file__}, not {SRC}")
    return elprov.cli


def invoke(main, argv) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # a crash is a failed request, not a crashed run
            code, err = None, io.StringIO(f"{type(exc).__name__}: {exc}")
    return code, out.getvalue(), err.getvalue()


def setup(cli, workload: str, seed: int, directory: Path, repeat: int):
    """Generate the request pool and warm up on requests of every class.

    Warm-up inputs come from a fixed seed: they are not measured, and
    keeping them the same for every seed keeps ``setup_s`` comparable.
    """
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    pool = [workloads.make_request(workload, seed, i, directory) for i in range(POOL[workload])]
    problems = []
    for c in range(workloads.request_classes(workload)):
        request = workloads.make_request(workload, WARMUP_SEED, f"warm{repeat}-{c}", directory)
        code, out, err = invoke(cli.main, request.argv)
        reason = checks.check(request, code, out)
        if reason:
            problems.append(f"warm-up {request.cls}: {reason} {err.strip()}")
    return pool, problems


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


_PROBE_KEYS = [f"k{i}" for i in range(1024)]
_PROBE_TABLE = dict.fromkeys(_PROBE_KEYS, 1)


def machine_probe() -> float:
    """Seconds for a fixed loop of dict lookups that allocates no containers.

    Neighbouring load on a shared machine slows this probe and the
    reasoner alike (both are hash-heavy interpreted code), so the probe
    tells how fast the machine was running around each request.
    """
    start = time.perf_counter()
    total = 0
    for _ in range(8):
        for key in _PROBE_KEYS:
            total += _PROBE_TABLE[key]
    return time.perf_counter() - start


def timed_loop(cli, tr, workload, seed, pool, directory, seconds, trace):
    """Closed loop until ``seconds`` of request time are measured.

    Returns (index, request, seconds, probe before, probe after) per
    request and the failures the checker found.
    """
    root = tr.wrap(tracer.ROOT, cli.main)
    records, failures = [], []
    before = machine_probe()  # like every later probe, it runs right after a request
    busy = 0.0
    index = 0
    while busy < seconds:
        if index < len(pool):
            request = pool[index]
        else:
            request = workloads.make_request(workload, seed, index, directory)
        main = cli.main
        if trace and index % 2:
            tr.request = index
            tr.install()
            main = root
        start = time.perf_counter()
        code, out, err = invoke(main, request.argv)
        elapsed = time.perf_counter() - start
        tr.uninstall()
        after = machine_probe()
        busy += elapsed
        records.append((index, request, elapsed, before, after))
        before = after
        reason = checks.check(request, code, out)
        if reason:
            failures.append(f"request {index} {request.cls}: {reason} {err.strip()[:200]}")
        index += 1
    return records, failures


def calibrated(seconds: float, before: float, after: float) -> float:
    """A measured time scaled to the reference machine speed.

    The factor is ``PROBE_REFERENCE_S`` over the mean of the probes taken
    just before and just after the measured interval. On a quiet machine
    of the reference kind it is close to 1; during a neighbour's burst the
    probe and the request slow down together, and the factor takes the
    burst back out.
    """
    return seconds * PROBE_REFERENCE_S / ((before + after) / 2)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = load_cli()
    directory = WORK / f"{workload}-{seed}-{int(trace)}"
    setup_s = []
    for repeat in range(SETUP_REPEATS):
        before, start = machine_probe(), time.perf_counter()
        pool, problems = setup(cli, workload, seed, directory, repeat)
        setup_s.append(calibrated(time.perf_counter() - start, before, machine_probe()))
    tr = tracer.Tracer()
    try:
        records, failures = timed_loop(cli, tr, workload, seed, pool, directory, seconds, trace)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    latency = [calibrated(r[2], r[3], r[4]) for r in records]
    raw = [r[2] for r in records]
    n = len(records)
    tail = percentile(latency, TAIL_PERCENTILE)
    report = {
        "workload": workload,
        "seed": seed,
        "requests": n,
        "failed_ratio": len(failures) / n,
        "tail_percentile": TAIL_PERCENTILE,
        "tail_samples_beyond": sum(x > tail for x in latency),
        "raw_p50_ms": 1000 * statistics.median(raw),
        "machine_factor": statistics.median(c / r for c, r in zip(latency, raw)),
        "properties": input_properties([r[1] for r in records]),
    }
    for line in problems + failures[:20]:
        print(f"FAIL {line}")
    result = {"correct": not problems and not failures, "attempted": n, "failed": len(failures)}
    if not trace:
        result["metrics"] = {
            "latency_p50_ms": (1000 * statistics.median(latency), "ms"),
            "latency_tail_ms": (1000 * tail, "ms"),
            "throughput_rps": (n / sum(latency), "1/s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        by_id = {r[0]: r[1] for r in records}
        ids = [i for i in by_id if i % 2]
        scale = {r[0]: t / r[2] for r, t in zip(records, latency)}
        layers = tracer.layer_metrics(tr.spans, tr.counts, ids, scale)
        assertion_ids = [i for i in ids if by_id[i].cls in ("relevant:ca", "relevant:ra")]
        merged = tracer.layer_metrics(tr.spans, tr.counts, assertion_ids)
        merged_calls = merged["relevance.merged_saturate.calls_per_req"]
        layers["relevance.merged_saturate.calls_per_assertion_req"] = merged_calls
        layers["trace.overhead_ms_per_req"] = 1000 * tracing_overhead(records, latency)
        units = tracer.metric_units()
        units["relevance.merged_saturate.calls_per_assertion_req"] = "1/req"
        units["trace.overhead_ms_per_req"] = "ms/req"
        result["metrics"] = {k: (v, units[k]) for k, v in layers.items()}
        report["calls_per_req_by_class"] = class_breakdown(tr, by_id, ids)
        WORK.mkdir(exist_ok=True)
        tr.write(WORK / f"spans-{workload}-{seed}.jsonl")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    report_lines(report, result)
    return result


def tracing_overhead(records, latency) -> float:
    """Traced minus untraced mean latency, compared within each request class."""
    gaps = []
    for cls in sorted({r[1].cls for r in records}):
        traced = [t for r, t in zip(records, latency) if r[1].cls == cls and r[0] % 2]
        untraced = [t for r, t in zip(records, latency) if r[1].cls == cls and not r[0] % 2]
        if traced and untraced:
            gaps.append(statistics.mean(traced) - statistics.mean(untraced))
    return statistics.mean(gaps) if gaps else 0.0


def input_properties(requests) -> dict:
    """Measured properties of the inputs, so later claims can cite shares."""
    props: dict[str, float] = {}
    keys = sorted({k for r in requests for k in r.props})
    for key in keys:
        values = [float(r.props[key]) for r in requests if key in r.props]
        props[key] = round(statistics.mean(values), 4)
    return props


def class_breakdown(tr, by_id, ids) -> dict:
    out = {}
    for cls in sorted({by_id[i].cls for i in ids}):
        members = [i for i in ids if by_id[i].cls == cls]
        layers = tracer.layer_metrics(tr.spans, tr.counts, members)
        out[cls] = {
            name: round(layers[f"{name}.calls_per_req"], 3)
            for name in tracer.SPAN_NAMES
            if layers[f"{name}.calls_per_req"]
        }
    return out


def report_lines(report: dict, result: dict) -> None:
    print(
        f"{report['workload']} seed={report['seed']}: {report['requests']} requests, "
        f"raw p50 {report['raw_p50_ms']:.1f} ms, calibration factor {report['machine_factor']:.3f}, "
        f"failed_ratio={report['failed_ratio']:.4f}, tail=p{report['tail_percentile']} "
        f"with {report['tail_samples_beyond']} samples beyond"
    )
    print(f"properties {json.dumps(report['properties'], sort_keys=True)}")
    for cls, calls in report.get("calls_per_req_by_class", {}).items():
        print(f"calls_per_req {cls} {json.dumps(calls)}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")


def run_all(args) -> int:
    """Run every workload in its own process, one after the other."""
    load_cli()  # fail before starting anything when there is no program
    results = {}
    status = 0
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode or not lines:
            status = proc.returncode or 1
            continue
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
