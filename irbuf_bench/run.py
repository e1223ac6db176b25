#!/usr/bin/env python3
"""The irbuf benchmark's one command (see BENCHMARK.md).

Builds irbuf_bench from the repository's sources on first use (into
$CARGO_TARGET_DIR, default .bench_build, under the repository root),
generates the corpus there once, and runs workloads.

  run.py --workload W --seed N --seconds S --trace 0|1
      One run. Prints `workload metric value unit` lines, then one JSON
      object {"correct","attempted","failed","metrics"} as the last line:
      the end_to_end metrics of BENCHMARK.json with --trace 0, the
      per_layer metrics with --trace 1.
  run.py [--reps N] [--seed N] [--trace 1] [--out FILE]
      Every workload N times untraced (seeds N, N+1, ...; workload order
      alternating per rep), plus one traced run each with --trace 1;
      prints every metric's median and spread, checks the answers and
      writes the result JSON.
  run.py --compare 'BASE*.json' 'NEW*.json'
      One row per workload x end-to-end metric: medians, change, bound
      and a verdict by the bounds and the pairs rule (runs pair up in
      file-name order); exits 1 on a regression or more failures.
  run.py --check FILE
      Validates a result file: every metric with its unit, counter
      conservation, fractions in [0, 1].
  run.py --smoke [--binary PATH]
      All workloads, traced and untraced, on a 2% corpus with 1-s windows.
"""

import argparse
import glob
import json
import os
import platform
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["session-io", "session-hot", "adhoc-sharded", "paper-replay"]
SCHEMA = "irbuf-bench/1"


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    """Configures (once) and builds irbuf_bench; returns the binary path."""
    build_dir = os.path.join(target_dir(), "irbuf_bench")
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-G", "Unix Makefiles",
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "irbuf_bench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "irbuf_bench")


def run_binary(binary, workload, seed, seconds, traced, smoke=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds),
           "--cache", os.path.join(os.path.dirname(binary), "corpus")]
    if traced:
        cmd.append("--traced")
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s exited %d" % (workload, proc.returncode))
    return json.loads(lines[-1])


def expected_metrics(spec, traced):
    return spec["per_layer"] if traced else spec["end_to_end"]


def check_run(run, spec):
    """Problems with one run's output; empty when it is sound."""
    problems = []
    metrics = run["metrics"]
    for m in expected_metrics(spec, run["traced"]):
        got = metrics.get(m["name"])
        if got is None:
            problems.append("missing metric %s" % m["name"])
        elif got["unit"] != m["unit"]:
            problems.append("%s: unit %s, expected %s"
                            % (m["name"], got["unit"], m["unit"]))
    for name, got in metrics.items():
        if got["unit"] == "fraction" and not -1e-9 <= got["value"] <= 1 + 1e-9:
            problems.append("%s = %r is not in [0, 1]" % (name, got["value"]))
    c = run.get("counters", {})
    if c:
        if c["fetches"] != c["hits"] + c["misses"]:
            problems.append("fetches != hits + misses")
        if c["pool_device_reads"] != c["demand_reads"] + c["readahead_reads"]:
            problems.append("device reads != demand + readahead")
        if c["device_reads"] != c["pool_device_reads"]:
            problems.append("disk reads != pool device reads")
    if run["wrong"]:
        problems.append("%d wrong answers" % run["wrong"])
    return problems + run.get("problems", [])


def print_lines(workload, run, names):
    for name in names:
        m = run["metrics"][name]
        print("%s %s %.10g %s" % (workload, name, m["value"], m["unit"]))


def single(args, spec):
    binary = args.binary or build()
    traced = args.trace == 1
    run = run_binary(binary, args.workload, args.seed, args.seconds, traced)
    problems = check_run(run, spec)
    for p in problems:
        log("irbuf_bench check:", p)
    names = [m["name"] for m in expected_metrics(spec, traced)]
    print_lines(args.workload, run, names)
    print(json.dumps({
        "correct": bool(run["correct"]) and not problems,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {n: run["metrics"][n] for n in names},
    }))
    return 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs, spec):
    summary = {}
    for traced in (False, True):
        picked = [r for r in runs if r["traced"] == traced]
        for m in expected_metrics(spec, traced):
            values = [r["metrics"][m["name"]]["value"] for r in picked]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            summary[m["name"]] = {
                "unit": m["unit"], "n": len(values), "median": med,
                "q1": q1, "q3": q3,
                "iqr_frac": (q3 - q1) / abs(med) if med else 0.0,
                "values": values,
            }
    for key in ("samples", "replay_samples", "recall_sample"):
        values = [r["info"][key] for r in runs
                  if not r["traced"] and key in r["info"]]
        if values:
            summary["samples." + key] = {"unit": "count", "n": len(values),
                                         "median": statistics.median(values),
                                         "values": values}
    return summary


def machine_note(binary):
    compiler = ""
    cache = os.path.join(os.path.dirname(binary), "CMakeCache.txt")
    try:
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
                    compiler = subprocess.run(
                        [path, "--version"], capture_output=True,
                        text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f
                        if l.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "os": platform.platform(),
        "compiler": compiler,
        "build_type": "RelWithDebInfo, IRBUF_DCHECKS on",
        "device": "SimulatedDisk: each device read sleeps (2000 us, "
                  "200 us on adhoc-sharded, 0 on session-hot and "
                  "paper-replay); not a real disk",
    }


def all_workloads(args, spec):
    binary = args.binary or build()
    results = {"schema": SCHEMA, "run_seconds": args.seconds,
               "machine": machine_note(binary), "workloads": {}}
    runs = {w: [] for w in WORKLOADS}
    ok = True
    for rep in range(args.reps):
        order = WORKLOADS if rep % 2 == 0 else WORKLOADS[::-1]
        for w in order:
            runs[w].append(run_binary(binary, w, args.seed + rep, args.seconds,
                                      False))
    if args.trace:
        for w in WORKLOADS:
            runs[w].append(run_binary(binary, w, args.seed, args.seconds, True))
    for w in WORKLOADS:
        for run in runs[w]:
            problems = check_run(run, spec)
            for p in problems:
                log("%s seed %d: %s" % (w, run["seed"], p))
            ok = ok and run["correct"] and not problems
        summary = summarize(runs[w], spec)
        for name, s in summary.items():
            if name.startswith("samples."):
                print("%s %s %g count" % (w, name, s["median"]))
            else:
                print("%s %s %.6g %s  (iqr %.1f%%, n=%d)"
                      % (w, name, s["median"], s["unit"],
                         100 * s["iqr_frac"], s["n"]))
        results["workloads"][w] = {"runs": runs[w], "summary": summary}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1, sort_keys=True)
            f.write("\n")
        log("wrote", args.out)
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


def smoke(args, spec):
    binary = args.binary or build()
    ok = True
    for w in WORKLOADS:
        for traced in (False, True):
            run = run_binary(binary, w, 1, 1, traced, smoke=True)
            problems = check_run(run, spec)
            if not run["correct"] or problems:
                ok = False
                log("smoke %s traced=%s: %s" % (w, traced, problems))
            names = [m["name"] for m in expected_metrics(spec, traced)]
            print_lines(w, run, names)
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


def check_file(path, spec):
    with open(path) as f:
        results = json.load(f)
    problems = []
    if results.get("schema") != SCHEMA:
        problems.append("schema is not %s" % SCHEMA)
    for w, data in results.get("workloads", {}).items():
        for run in data["runs"]:
            problems += ["%s seed %d: %s" % (w, run["seed"], p)
                         for p in check_run(run, spec)]
    for p in problems:
        log(p)
    print(json.dumps({"correct": not problems}))
    return 1 if problems else 0


def untraced_runs(pattern):
    """Untraced runs per workload from every result file `pattern` names."""
    paths = sorted(glob.glob(pattern))
    if not paths:
        raise OSError("no result file matches %s" % pattern)
    runs = {}
    for path in paths:
        with open(path) as f:
            for w, data in json.load(f)["workloads"].items():
                runs.setdefault(w, []).extend(
                    r for r in data["runs"] if not r["traced"])
    return runs


def compare(base_pattern, new_pattern, spec):
    """Applies the bounds and the pairs rule of BENCHMARK.md."""
    base = untraced_runs(base_pattern)
    new = untraced_runs(new_pattern)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    rows, bad = [], False
    for w in base:
        if w not in new:
            continue
        b_runs, n_runs = base[w], new[w]
        for name, m in metrics.items():
            b = [r["metrics"][name]["value"] for r in b_runs]
            n = [r["metrics"][name]["value"] for r in n_runs]
            if not b or not n:
                continue
            verdict, change = judge(b, n, m)
            bad = bad or verdict == "REGRESSION"
            rows.append((w, name, statistics.median(b), statistics.median(n),
                         change, m["bound"], verdict))
        fb, fn = fail_frac(b_runs), fail_frac(n_runs)
        verdict = "FAIL_FRAC UP" if fn > fb else "ok"
        bad = bad or fn > fb
        rows.append((w, "fail_frac", fb, fn, fn - fb, 0.0, verdict))
    print("%-14s %-14s %12s %12s %8s %6s  %s"
          % ("workload", "metric", "base", "new", "change", "bound", "verdict"))
    for w, name, mb, mn, change, bound, verdict in rows:
        print("%-14s %-14s %12.5g %12.5g %+7.1f%% %5.0f%%  %s"
              % (w, name, mb, mn, 100 * change, 100 * bound, verdict))
    return 1 if bad else 0


def fail_frac(runs):
    return (sum(r["failed"] for r in runs)
            / max(1, sum(r["attempted"] for r in runs)))


def judge(b, n, m):
    """Verdict for one workload x metric from base runs b and new runs n."""
    lower = m["better"] == "lower"
    mb, mn = statistics.median(b), statistics.median(n)
    change = (mn - mb) / abs(mb) if mb else 0.0
    worse = change if lower else -change

    def better(x, y):
        return x < y if lower else x > y

    pairs = list(zip(b, n))
    wins = sum(1 for x, y in pairs if better(y, x))
    losses = sum(1 for x, y in pairs if better(x, y))
    q1, _, q3 = quartiles(b)
    # The pairs rule, applied in both directions.
    decided = len(pairs) >= 10 and abs(mn - mb) > q3 - q1
    if decided and wins >= 0.9 * len(pairs):
        return "improved", change
    if all(better(x, y) for x in n for y in b):
        return "better (no claim: %d pairs)" % len(pairs), change
    if worse > m["bound"]:
        return "REGRESSION", change
    if decided and losses >= 0.9 * len(pairs):
        # Worse in nearly every pair, by less than the bound allows.
        return "worse, inside bound", change
    if max(iqr_frac(b), iqr_frac(n)) > m["bound"]:
        return "unresolved", change
    return "no change", change


def iqr_frac(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def main():
    p = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--binary", help="use this irbuf_bench instead of building")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    p.add_argument("--check", metavar="FILE")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    if args.check:
        return check_file(args.check, spec)
    if args.smoke:
        return smoke(args, spec)
    if args.workload:
        return single(args, spec)
    return all_workloads(args, spec)


def terminate(signum, frame):
    # Unwinds through subprocess.run, which kills and reaps its child.
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, terminate)
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, OSError, KeyError, ValueError) as e:
        log("irbuf_bench:", e)
        sys.exit(1)
