#!/usr/bin/env python3
"""perfbench: the emulator's benchmark, one command for every workload.

    python3 perfbench/run.py --workload paper|cohort|horizon|served \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds perfbench_bin from source into
.bench_build/perfbench (the repository's libraries from src/, unchanged),
runs the workload, checks its outputs, prints a human-readable summary and,
as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
reports its per-layer metrics and writes a Perfetto-loadable span trace
under .bench_out/. Other modes:

    python3 perfbench/run.py --smoke   # every workload once, reduced sizes
    python3 perfbench/run.py --pin     # re-pin expected outputs, seeds 1, 7

perfbench/README.md explains the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perfstats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
BIN = os.path.join(BUILD, "perfbench_bin")
WORKLOADS = ("paper", "cohort", "horizon", "served")
# Expected outputs are pinned for seed 1 and for held-out seed 7, so a
# claim tuned on one can be re-checked on the other.
PINNED_SEEDS = (1, 7)


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no src/ next to perfbench/: run from a checkout of "
                         "the repository")
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "perfbench_bin"], stdout=sys.stderr, check=True)
    return BIN


def read_first_line(path):
    with open(path) as f:
        return f.readline().strip()


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def tree_hash():
    """sha256 over the sources the benchmark builds and runs, for checkouts
    that are not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", "tests/golden"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint(build_info):
    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "compiler": build_info["compiler"],
        "build_type": build_info["build_type"],
        "flags": build_info["flags"].strip(),
        "git_sha": git_sha(),
        "tree": tree_hash(),
    }


def expected_outputs(workload, seed, units):
    """Pinned outputs for this run, or None when the seed is not pinned.
    `paper` runs at the golden registry's own seeds, so its expectations
    are the committed tests/golden digests, whatever the workload seed."""
    if workload == "paper":
        golden = os.path.join(ROOT, "tests", "golden")
        return {u: read_first_line(os.path.join(golden, u + ".digest"))
                for u in units
                if os.path.exists(os.path.join(golden, u + ".digest"))}
    path = os.path.join(HERE, "expected", workload + ".json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f).get(str(seed))


def run_bin(workload, seed, seconds, trace, smoke):
    os.makedirs(OUT, exist_ok=True)
    report_path = os.path.join(
        OUT, "report-%s-%d-%d.json" % (workload, seed, os.getpid()))
    cmd = [BIN, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "1" if trace else "0", "--report",
           report_path, "--out-dir", OUT]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=sys.stderr)
    if proc.returncode != 0:
        raise BenchError("perfbench_bin exited with %d" % proc.returncode)
    with open(report_path) as f:
        report = json.load(f)
    os.remove(report_path)
    return report


def check_outputs(workload, seed, report, smoke):
    """Counts the run's own checks plus one per pinned output."""
    attempted, failed = report["attempted"], report["failed"]
    failures = list(report["failures"])
    outputs = dict(report["outputs"])
    exp = None if smoke and workload != "paper" else expected_outputs(
        workload, seed, list(outputs))
    if exp is not None:
        for unit in sorted(set(exp) | set(outputs)):
            attempted += 1
            if exp.get(unit) != outputs.get(unit):
                failed += 1
                failures.append("%s/%s: output %r, pinned %r" % (
                    workload, unit, outputs.get(unit), exp.get(unit)))
    return attempted, failed, failures, exp is not None


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metrics_of(report, trace, spec):
    if not trace:
        values = perfstats.end_to_end(report)
        wanted = spec["end_to_end"]
    else:
        values = dict(report["layer"])
        values["closure.unexplained_ns_per_packet"] = (
            perfstats.closure_unexplained(report["e2e_ns_per_packet"],
                                          report["closure"]))
        wanted = spec["per_layer"]
    out = {}
    for m in wanted:
        if m["name"] not in values:
            raise BenchError("metric %s not produced" % m["name"])
        out[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return out


def summarize(workload, seed, report, trace, attempted, failed, failures,
              pinned):
    fp = fingerprint(report["build"])
    print("perfbench %s seed=%d trace=%d" % (workload, seed, int(trace)))
    print("host: %s" % json.dumps(fp, sort_keys=True))
    reps = report["reps"]
    unit_walls = [w for r in reps for w in r["unit_wall_s"]]
    print("timed repetitions: %d, units per repetition: %g" % (
        len(reps), reps[0]["units"]))
    tail = perfstats.tail_percentile(unit_walls)
    tail_txt = ("p%g=%.6f s" % tail) if tail else "no percentile has 10 " \
        "samples beyond it"
    print("job_s as measured: p50=%.6f s, %s, n=%d" % (
        perfstats.median(unit_walls), tail_txt, len(unit_walls)))
    refs = [s for r in reps for s in r["ref_s"]]
    print("host speed on vCPU %d: reference kernel p50=%.6f s, p10-p90 "
          "%.6f-%.6f s over %d samples (nominal %g s); each timed part and "
          "set-up is rescaled by the sample after it" % (
              report["cpu"], perfstats.median(refs),
              perfstats.percentile(refs, 10), perfstats.percentile(refs, 90),
              len(refs), perfstats.REFERENCE_NOMINAL_S))
    print("setup_s as measured: p50=%.6f s, n=%d" % (
        perfstats.median(report["setup_s"]), len(report["setup_s"])))
    print("outputs checked against pinned values: %s" % (
        "yes" if pinned else "no (seed not pinned; verify-pass consistency "
        "only)"))
    print("failed_frac: %.6f (%d of %d)" % (
        perfstats.failed_frac(attempted, failed), failed, attempted))
    for f in failures:
        print("  FAILED %s" % f)
    for n in report["notes"]:
        print("  note: %s" % n)
    if trace:
        print("closure: e2e %.1f ns/packet; terms:" %
              report["e2e_ns_per_packet"])
        for t in report["closure"]:
            print("  %-22s %10.2f ns/call x %8.4f calls/packet" % (
                t["layer"], t["ns_per_call"], t["calls_per_packet"]))
        path = report["trace_path"]
        if path and os.path.exists(path):
            with open(path) as f:
                events = json.load(f)["traceEvents"]
            rows = perfstats.self_times(events)
            print("span self time (trace: %s):" % os.path.relpath(path, ROOT))
            for name, row in sorted(rows.items(),
                                    key=lambda kv: -kv[1]["self_ms"])[:15]:
                print("  %-40s n=%-6d total %10.2f ms  self %10.2f ms" % (
                    name[:40], row["count"], row["total_ms"], row["self_ms"]))
    return fp


def run_one(args, spec):
    build()
    report = run_bin(args.workload, args.seed, args.seconds, args.trace,
                     False)
    attempted, failed, failures, pinned = check_outputs(
        args.workload, args.seed, report, False)
    fp = summarize(args.workload, args.seed, report, args.trace, attempted,
                   failed, failures, pinned)
    metrics = metrics_of(report, args.trace, spec)
    for name, m in metrics.items():
        print("  %-40s %.6g %s" % (name, m["value"], m["unit"]))
    with open(os.path.join(OUT, "result-%s-seed%d-trace%d.json" % (
            args.workload, args.seed, int(args.trace))), "w") as f:
        json.dump({"host": fp, "report": report, "metrics": metrics}, f)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def run_smoke(spec):
    """Every workload once at reduced size, traced and untraced, checks on."""
    build()
    bad = 0
    for w in WORKLOADS:
        for trace in (False, True):
            report = run_bin(w, 1, 0, trace, True)
            attempted, failed, failures, _ = check_outputs(w, 1, report,
                                                           True)
            metrics_of(report, trace, spec)
            print("smoke %-8s trace=%d: %d checks, %d failed" % (
                w, int(trace), attempted, failed))
            for f in failures:
                print("  FAILED %s" % f)
            bad += failed
    print(json.dumps({"smoke": "ok" if bad == 0 else "failed"}))
    return 0 if bad == 0 else 1


def run_pin():
    """Re-pins the expected outputs of cohort, horizon and served."""
    build()
    for w in WORKLOADS:
        if w == "paper":
            continue
        pinned = {}
        for seed in PINNED_SEEDS:
            report = run_bin(w, seed, 0, False, False)
            if report["failed"]:
                raise BenchError("%s seed %d fails its own checks: %s" % (
                    w, seed, report["failures"]))
            pinned[str(seed)] = dict(report["outputs"])
        path = os.path.join(HERE, "expected", w + ".json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(pinned, f, indent=1, sort_keys=True)
            f.write("\n")
        log("pinned %s" % os.path.relpath(path, ROOT))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        spec = load_spec()
        if args.smoke:
            return run_smoke(spec)
        if args.pin:
            return run_pin()
        if args.workload is None:
            ap.error("--workload is required")
        run_one(args, spec)
        return 0
    except (BenchError, OSError, subprocess.CalledProcessError) as e:
        log("perfbench: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
