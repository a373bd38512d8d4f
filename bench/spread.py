"""Run the benchmark over several seeds per workload, one run at a time, and
report each end-to-end metric's median, quartiles and spread (interquartile
range as a share of the median) against its bound in BENCHMARK.json.

    python3 bench/spread.py --seeds 1-10 [--workloads c5-train,c5-ablate] [--out FILE]

With --out, the machine record, each workload's graph shape and every run's
metrics are written to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(workload: str, seed: int, seconds: int) -> tuple[dict, dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    tagged = {line.split(" ", 1)[0]: line.split(" ", 1)[1] for line in lines[:-1] if " " in line}
    machine = json.loads(tagged["machine"])
    graph = json.loads(tagged["graph"].split(" setups_s ")[0])
    return json.loads(lines[-1]), machine, graph


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None, help="comma list (default: all)")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = _seeds(args.seeds)
    record = {"run_seconds": bench["run_seconds"], "workloads": {}}
    worst = 0.0
    for name in names:
        runs, graphs = [], {}
        for seed in seeds:
            result, machine, graph = _run(name, seed, bench["run_seconds"])
            record["machine"] = machine
            graphs[seed] = graph
            runs.append({"seed": seed, **result})
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        summary = {}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[metric["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                       "bound": metric["bound"]}
            if metric["name"] != "setup_s":
                worst = max(worst, spread / metric["bound"])
            print(f"  {metric['name']:<12} median {med:.6g} {metric['unit']}  "
                  f"q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}  "
                  f"({spread / metric['bound']:.2f} of bound {metric['bound']})", flush=True)
        record["workloads"][name] = {"graphs": graphs, "summary": summary, "runs": runs}
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.2f}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
