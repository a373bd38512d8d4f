"""One benchmark step in a fresh process, so that import cost shows in
set-up and ru_maxrss covers a single workload run.

    python3 bench/worker.py setup --workload W --seed S --dir D --t0 T
    python3 bench/worker.py run --workload W --dir D --out O [--trace PATH]

`setup` builds the inputs in D (and pretrains, for workloads that time a
retrain); its time runs from T, the parent's time.monotonic() at spawn.
`run` times one in-process gclgcn.cli.run call. Both print one JSON object
as their last line.
"""

from __future__ import annotations

import time

_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS, build_inputs  # noqa: E402


def _setup(args) -> dict:
    from gclgcn import cli

    w = WORKLOADS[args.workload]
    setup_dir = Path(args.dir)
    g = build_inputs(w, args.seed, setup_dir)
    if w.pretrained:
        p = w.paths(setup_dir)
        rc = cli.run(["pretrain", "--config", str(p["config"]), "--out", str(p["pretrained"])])
        if rc != 0:
            raise SystemExit(f"pretrain exited {rc}")
    return {"setup_s": time.monotonic() - args.t0, "n": g.n, "edges": len(g.edges), "f": g.f}


def _run(args) -> dict:
    from gclgcn import cli

    w = WORKLOADS[args.workload]
    argv = w.argv(Path(args.dir), Path(args.out))
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    error = None
    start = time.perf_counter()
    try:
        rc = cli.run(argv)
    except Exception as exc:  # a crash is a failed run, reported not raised
        rc, error = None, f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.remove()
        tracer.dump(args.trace, wall_s)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"rc": rc, "error": error, "wall_s": wall_s, "peak_rss_mb": peak_mb}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("step", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--t0", type=float, default=_START)
    parser.add_argument("--out")
    parser.add_argument("--trace")
    args = parser.parse_args()
    result = _setup(args) if args.step == "setup" else _run(args)
    sys.stdout.flush()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
