#!/usr/bin/env python3
"""Benchmark the change against its parent commit on one host, and gate it.

    python3 .github/bench-gate.py PARENT_DIR     measure, print, gate
    python3 .github/bench-gate.py --results FILE  gate recorded results

Run it from the change's checkout root; PARENT_DIR is a checkout of the
parent commit. For every workload BENCHMARK.json lists, it runs that
file's `command` with `--workload <name>` in PAIRS alternating
parent/change pairs, then TRACED `--trace 1 --workload mem-probed` runs
of the change. It prints the median of every end-to-end metric for both
sides and exits 1, printing one `FAIL:` line per reason, when:

  * a change run, timed or traced, reports `"correct": false` or
    `failed > 0`;
  * the change's median `wall_s` exceeds the parent's by more than the
    `wall_s` bound in BENCHMARK.json;
  * the median `interval.overhead` of the traced runs exceeds
    INTERVAL_OVERHEAD_BOUND.

`--results` gates results in the form a measurement collects, as JSON:
`{"workloads": {name: {"parent": [run, ...], "change": [run, ...]}},
"traced": [run, ...]}`, where a run is the benchmark's last output line.
CI feeds hand-written inputs through the gate this way.
"""

import json
import statistics
import subprocess
import sys

PAIRS = 5
# The interval probe rides along on ordinary campaign runs (`--intervals`);
# it must stay cheap enough to leave on. One traced reading swings past the
# bound on a 2-vCPU host with no code cause, so the gate takes the median
# of TRACED runs.
INTERVAL_OVERHEAD_BOUND = 1.25
TRACED = 3


def run(command, cwd, args):
    """One benchmark process: its host line and its result line."""
    out = subprocess.run(command + args, cwd=cwd, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit(f"FAIL: `{' '.join(args)}` in {cwd} exited {out.returncode}")
    lines = out.stdout.strip().splitlines()
    host = next((l for l in lines if l.startswith("host ")), "host unknown")
    return host, json.loads(lines[-1])


def measure(spec, parent):
    command = spec["command"]
    results = {"workloads": {}}
    for w in (w["name"] for w in spec["workloads"]):
        sides = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                host, result = run(command, parent if side == "parent" else ".", ["--workload", w])
                results.setdefault(f"host_{side}", host)
                sides[side].append(result)
                print(f"{w} {side} run {len(sides[side])}: wall_s "
                      f"{result['metrics']['wall_s']['value']:.3f}", flush=True)
        results["workloads"][w] = sides
    results["traced"] = [run(command, ".", ["--workload", "mem-probed", "--trace", "1"])[1]
                         for _ in range(TRACED)]
    return results


def value(result, name):
    m = result["metrics"].get(name)
    return None if m is None else m["value"]


def median(runs, name):
    values = [v for v in (value(r, name) for r in runs) if v is not None]
    return statistics.median(values) if values else None


def incorrect(what, result):
    if result["correct"] is not True or result["failed"] > 0:
        return f"{what} reports correct={json.dumps(result['correct'])}, failed={result['failed']}"
    return None


def gate(spec, results):
    metrics = spec["end_to_end"]
    bound = next(m["bound"] for m in metrics if m["name"] == "wall_s")
    fails = []
    for side in ("parent", "change"):
        if f"host_{side}" in results:
            print(f"{side}: {results[f'host_{side}']}")
    print(f"{'workload':<12} {'metric':<14} {'unit':<5} {'parent':>10} {'change':>10} {'ratio':>7}")
    for w, sides in results["workloads"].items():
        for i, r in enumerate(sides["change"]):
            fails.append(incorrect(f"{w}: change run {i + 1}", r))
        for m in metrics:
            p, c = median(sides["parent"], m["name"]), median(sides["change"], m["name"])
            cells = ["-" if x is None else f"{x:.4g}" for x in (p, c)]
            ratio = f"{c / p:.3f}" if p and c is not None else "-"
            print(f"{w:<12} {m['name']:<14} {m['unit']:<5} {cells[0]:>10} {cells[1]:>10} {ratio:>7}")
        p, c = median(sides["parent"], "wall_s"), median(sides["change"], "wall_s")
        if c > p * (1 + bound):
            fails.append(f"{w}: wall_s median {c:.3f} s is {c / p:.3f}x the parent's "
                         f"{p:.3f} s (bound {1 + bound:.2f}x)")
    traced = results["traced"]
    for i, r in enumerate(traced):
        fails.append(incorrect(f"mem-probed: traced change run {i + 1}", r))
    readings = ", ".join(f"{value(r, 'interval.overhead'):.3f}" for r in traced)
    overhead = median(traced, "interval.overhead")
    print(f"mem-probed traced change runs: interval.overhead {readings}, median "
          f"{overhead:.3f} (bound {INTERVAL_OVERHEAD_BOUND})")
    if overhead > INTERVAL_OVERHEAD_BOUND:
        fails.append(f"mem-probed: interval.overhead median {overhead:.3f} of "
                     f"{len(traced)} traced runs exceeds {INTERVAL_OVERHEAD_BOUND}")
    fails = [f for f in fails if f]
    for f in fails:
        print(f"FAIL: {f}")
    return not fails


def main():
    args = sys.argv[1:]
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if len(args) == 2 and args[0] == "--results":
        with open(args[1]) as f:
            results = json.load(f)
    elif len(args) == 1 and not args[0].startswith("-"):
        results = measure(spec, args[0])
    else:
        sys.exit(__doc__)
    sys.exit(0 if gate(spec, results) else 1)


if __name__ == "__main__":
    main()
