"""Repeat the benchmark and report each metric's median and quartiles.

    python3 perfbench/steady.py --workload verify --seeds 1-10 --seconds 30
    python3 perfbench/steady.py --workload search --seeds 7x10 --seconds 30

`--seeds a-b` runs seeds a..b once each; `--seeds sxk` runs seed s k times.
Spread is (Q3 - Q1) / median, with quartiles from
`statistics.quantiles(values, n=4)`.  Runs go one after another, never in
parallel, so they do not slow each other down.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds_of(spec):
    if "x" in spec:
        seed, times = spec.split("x")
        return [int(seed)] * int(times)
    lo, hi = spec.split("-")
    return list(range(int(lo), int(hi) + 1))


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True).stdout.splitlines()
    host = {}
    for line in out:
        if line.startswith("# host "):
            host = {k: float(v) for k, v in
                    (kv.split("=") for kv in line[7:].split() if "=" in kv)}
    return json.loads(out[-1]), host


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    results = []
    for seed in seeds_of(args.seeds):
        result, host = run_once(args.workload, seed, args.seconds, args.trace)
        results.append((result, host))
        print("seed %d correct=%s failed=%d %s" % (
            seed, result["correct"], result["failed"],
            " ".join("%s=%.6g" % (k, v["value"])
                     for k, v in result["metrics"].items()
                     if not k.endswith(".calls"))), flush=True)
    table = {name: summary([r["metrics"][name]["value"] for r, _ in results])
             for name in results[0][0]["metrics"]}
    for key in results[0][1]:
        table["host." + key] = summary([h[key] for _, h in results])
    print(json.dumps({"workload": args.workload, "seeds": args.seeds,
                      "seconds": args.seconds, "runs": len(results),
                      "failed": sum(r["failed"] for r, _ in results),
                      "metrics": table}, indent=1))


if __name__ == "__main__":
    main()
