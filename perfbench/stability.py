#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/stability.py --workloads fanout-1000,tcp-compete \
        --seeds 1-10 [--seconds N] --trace 0 [--json out.json]

Run from the root of a checkout. --seconds defaults to BENCHMARK.json's
run_seconds. For every workload and metric it prints
the median, the quartiles (statistics.quantiles, n=4), and the spread:
the distance between the quartiles as a share of the median. An
end-to-end metric is marked "ok" when its spread is below a third of the
bound BENCHMARK.json gives it. --json writes the same figures, the
per-seed output digests and the machine context, the form baseline.json
keeps.
"""
import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def machine():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
    return {"nproc": os.cpu_count(), "cpu_model": model, "go_version": go,
            "os": platform.platform()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    out = {"machine": machine(), "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for wl in args.workloads.split(","):
        values, units, digests, header, paper = {}, {}, {}, "", []
        for seed in seed_range(args.seeds):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", str(args.trace)]
            p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {p.returncode}\n{p.stderr}", file=sys.stderr)
                return 1
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"]:
                ok = False
                print(f"{wl} seed {seed}: correct={res['correct']} failed={res['failed']}")
            header = lines[0]
            for line in lines:
                m = re.match(r"paper_error median=(\S+)", line)
                if m:
                    paper.append(float(m.group(1)))
                m = re.match(r"digest seed=(\d+) (\w+) events=(\d+)", line)
                if m:
                    if digests.setdefault(m.group(1), m.group(2)) != m.group(2):
                        ok = False
                        print(f"{wl} seed {m.group(1)}: digest {m.group(2)} differs from an earlier run's {digests[m.group(1)]}")
            for name, v in res["metrics"].items():
                values.setdefault(name, []).append(v["value"])
                units[name] = v["unit"]
            print(f"{wl} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items() if k in bounds), flush=True)
        summary = {}
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            spread = (q3 - q1) / med if med else 0.0
            summary[name] = {"median": med, "q1": q1, "q3": q3, "n": len(vs),
                             "spread": spread, "unit": units[name], "values": vs}
            mark = ""
            if name in bounds and name != "setup_s":
                good = spread < bounds[name] / 3
                ok = ok and good
                mark = f" bound={bounds[name]} {'ok' if good else 'WIDE'}"
            print(f"  {wl} {name:30s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} spread={spread:.4f} {units[name]}{mark}")
        out["workloads"][wl] = {"header": header, "metrics": summary, "digests": digests}
        if paper:
            out["workloads"][wl]["paper_error_median"] = statistics.median(paper)
            print(f"  {wl} paper_error median over runs={statistics.median(paper):.4f}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(out, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
