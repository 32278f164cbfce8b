"""Run-to-run spread of the benchmark, and the recorded baseline.

Run from the root of a source checkout::

    python3 perfbench/spread.py OUT.json [--traced]

For each workload of BENCHMARK.json, runs its command once per seed
1..10 (one fresh process at a time, ``run_seconds`` each), then prints
every end-to-end metric's median and quartile spread, (Q3 - Q1) / median
from ``statistics.quantiles(n=4)``, next to the metric's bound.  With
``--traced`` it adds one traced run per workload (seed 1) and records its
per-layer metrics and dominant layer.  All of it, with the machine, is
written to OUT.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

SEEDS = range(1, 11)


def bench(spec, workload, seed, trace):
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]),
                              "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        return lines[:-2], json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"{' '.join(argv)} printed no result ({proc.returncode}):\n"
                 f"{proc.stderr}")


def quartile_spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None):
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    result = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            _, info, res = bench(spec, workload, seed, 0)
            result["machine"] = info["machine"]
            runs.append(res)
            print(workload, seed, "correct" if res["correct"] else "FAILED",
                  {k: round(v["value"], 6) for k, v in res["metrics"].items()},
                  flush=True)
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "metrics": {}}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            spread = quartile_spread(values)
            entry["metrics"][name] = {"median": statistics.median(values),
                                      "spread": spread, "bound": bound,
                                      "unit": metric["unit"], "values": values}
            verdict = ("below bound/3" if spread < bound / 3 else
                       "below bound" if spread <= bound else "OVER BOUND")
            print(f"  {name:12s} median {statistics.median(values):.6g}  "
                  f"spread {spread:.4f}  bound {bound}  {verdict}", flush=True)
        if args.traced:
            lines, _, res = bench(spec, workload, SEEDS[0], 1)
            prefix = "dominant layer: "
            entry["dominant_layer"] = next(
                (line[len(prefix):] for line in lines if line.startswith(prefix)), None)
            entry["per_layer"] = {k: v["value"] for k, v in res["metrics"].items()}
            print(f"  {prefix}{entry['dominant_layer']}", flush=True)
        result["workloads"][workload] = entry
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
