"""Arithmetic of the perfbench harness, kept free of I/O so it can be tested.

perfbench_bin reports raw samples (per-repetition wall and work, set-up
samples, per-unit wall times, per-layer counts and isolated costs); this
module turns them into the metrics BENCHMARK.json names.
"""

import math
import statistics

# Percentiles considered for a timing's tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# The nominal host speed wall times are stated at: the reference kernel
# (src/reference.cpp) takes this long on it, about its time on a 4-vCPU Xeon
# VM in a quiet phase.
REFERENCE_NOMINAL_S = 0.005
# Set-up (allocation-heavy object construction) follows the host's phases
# less than the packet path does: between a busy phase and a quiet one on
# that VM the kernel's time halved and set-up times fell by 1.4-1.65x. Set-up
# is rescaled by this power of the kernel's slowdown; at 1 the set medians
# of `served` moved 33% between the two phases, at 0.75 3-12% on `paper`
# and `served`.
SETUP_SENSITIVITY = 0.75


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values, min_beyond=10, ladder=TAIL_LADDER):
    """The highest percentile of `ladder` that has at least `min_beyond`
    samples beyond it, as (p, value); None when even the median has fewer.

    A percentile p leaves len * (1 - p/100) samples beyond it, so with n
    samples the rule admits p only when n * (1 - p/100) >= min_beyond.
    """
    n = len(values)
    for p in ladder:
        if n * (1.0 - p / 100.0) >= min_beyond - 1e-9:
            return p, percentile(values, p)
    return None


def failed_frac(attempted, failed):
    """Share of attempted units whose output check failed."""
    if attempted <= 0:
        raise ValueError("no units attempted")
    if failed < 0 or failed > attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def closure_unexplained(e2e_ns_per_packet, terms):
    """End-to-end ns/packet minus the sum over layers of ns per call times
    calls per packet. `terms` holds dicts with ns_per_call and
    calls_per_packet."""
    explained = sum(t["ns_per_call"] * t["calls_per_packet"] for t in terms)
    return e2e_ns_per_packet - explained


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles from statistics.quantiles(n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def host_scale(ref_s, sensitivity=1.0):
    """Factor that restates a wall time measured next to one reference
    sample at the nominal host speed: a host phase that slows the reference
    kernel by x slows the emulator by about x (x**sensitivity in general)."""
    if ref_s <= 0:
        raise ValueError("reference kernel times must be positive")
    return (REFERENCE_NOMINAL_S / ref_s) ** sensitivity


def nominal_times(times, ref_s, sensitivity=1.0):
    """Wall times stated at the nominal host speed, each by the reference
    sample taken right after it: the host's speed wanders within a run as
    well as between runs."""
    if len(times) != len(ref_s):
        raise ValueError("each time needs one reference sample")
    return [t * host_scale(r, sensitivity) for t, r in zip(times, ref_s)]


def nominal_parts(rep):
    """A repetition's part wall times at the nominal host speed."""
    if not rep["parts_s"]:
        raise ValueError("repetition has no timed parts")
    return nominal_times(rep["parts_s"], rep["ref_s"])


def end_to_end(report):
    """The end-to-end metrics of one untraced run, from its raw report.

    Wall times, set-up included (SETUP_SENSITIVITY), are stated at the
    nominal host speed; the run's wall time is the median over its
    repetitions. A repetition's
    jobs are the repetition itself or, when it has several, its parts."""
    reps = report["reps"]
    if not reps:
        raise ValueError("report has no timed repetitions")
    for key in ("sim_s", "packets", "units"):
        if any(r[key] != reps[0][key] for r in reps):
            raise ValueError("repetitions did different work (%s)" % key)
    parts = [nominal_parts(r) for r in reps]
    setup = nominal_times(report["setup_s"], report["setup_ref_s"],
                          SETUP_SENSITIVITY)
    wall = median([sum(p) for p in parts])
    work = reps[0]
    if all(len(r["unit_wall_s"]) == 1 for r in reps):
        jobs = [sum(p) for p in parts]
    elif all(len(r["unit_wall_s"]) == len(p) for r, p in zip(reps, parts)):
        jobs = [j for p in parts for j in p]
    else:
        raise ValueError("jobs are neither repetitions nor parts")
    return {
        "sim_per_wall": work["sim_s"] / wall,
        "packets_per_s": work["packets"] / wall,
        "points_per_hour": work["units"] * 3600.0 / wall,
        # A repetition that is one job (a pass, a cohort run, a sweep) is
        # timed like the throughputs above; several jobs per repetition
        # give the median of all job samples.
        "job_s_p50": median(jobs),
        "peak_rss_mb": report["peak_rss_mb"],
        "setup_s": median(setup),
    }


def self_times(events):
    """Per span name: count, total and self milliseconds, from Chrome
    trace events whose args carry the span id and its parent's id. Self
    time is the span's duration minus the durations of its children."""
    child_ms = {}
    for e in events:
        parent = e["args"]["parent"]
        if parent:
            child_ms[parent] = child_ms.get(parent, 0.0) + e["dur"] / 1e3
    out = {}
    for e in events:
        dur_ms = e["dur"] / 1e3
        row = out.setdefault(e["name"], {"count": 0, "total_ms": 0.0,
                                         "self_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += dur_ms
        row["self_ms"] += dur_ms - child_ms.get(e["args"]["id"], 0.0)
    return out
