"""Alternating pairs of benchmark runs of two checkouts.

For each of ``--pairs`` pairs, runs the benchmark command that
``BENCHMARK.json`` names once in each checkout, with ``--workload``,
``--seconds`` at the file's ``run_seconds`` and ``--seed`` set to the
pair's number, so both runs of a pair take their ops in one order. The
first checkout runs first in even pairs and second in odd ones, so a drift
of the machine's speed falls on both sides alike. Each run's result is the
JSON object on the last line of its standard output.

Prints each run's ``correct`` flag, failed ops and end-to-end metrics, then
per metric each side's median and quartiles over the pairs, the ratio of
the medians and the pairs whose second checkout did better, by each
end-to-end metric's direction in ``BENCHMARK.json``. A run without a
result, or one not ``correct``, makes the exit status 1. The tool reads
the checkouts and writes nothing in them; the benchmark writes its own
scratch files there.

Run from anywhere:
``python tools/ab_pairs.py <parent checkout> <change checkout> --workload study
--pairs 10``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _benchmark():
    """(command, run seconds, {end-to-end metric: "higher" or "lower"}) of
    this repository's BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (spec["command"], spec["run_seconds"],
            {m["name"]: m["better"] for m in spec["end_to_end"]})


def run_once(command, checkout, workload, seconds, seed):
    """The result object of one benchmark run in checkout, or None where
    the run printed none."""
    args = [*command, "--workload", workload, "--seconds", f"{seconds:g}", "--seed", str(seed)]
    proc = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(f"{checkout}: no result (exit {proc.returncode})\n{proc.stderr}")
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def quartiles(values):
    """(first quartile, median, third quartile) of values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(results, directions):
    """{metric: (its direction, the (q1, median, q3) of each side, the
    ratio of the medians, pairs the second side won, pairs compared)} per
    metric of directions, over the pairs where both runs gave it."""
    out = {}
    for name, better in directions.items():
        pairs = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
                 for a, b in results if a and b and name in a["metrics"] and name in b["metrics"]]
        if not pairs:
            continue
        wins = sum((b > a) if better == "higher" else (b < a) for a, b in pairs)
        first, second = (quartiles([p[k] for p in pairs]) for k in (0, 1))
        ratio = second[1] / first[1] if first[1] else float("nan")
        out[name] = (better, first, second, ratio, wins, len(pairs))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first", help="checkout of the parent")
    parser.add_argument("second", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    command, seconds, directions = _benchmark()
    sides = (args.first, args.second)
    results, ok = [], True
    for seed in range(args.pairs):
        pair = [None, None]
        for k in ((0, 1) if seed % 2 == 0 else (1, 0)):
            pair[k] = run_once(command, sides[k], args.workload, seconds, seed)
            res = pair[k]
            ok &= bool(res and res.get("correct"))
            values = "" if res is None else " ".join(
                f"{n} {m['value']:.6g}" for n, m in res["metrics"].items())
            print(f"pair {seed} {'AB'[k]} ({sides[k]}): "
                  + ("no result" if res is None else
                     f"correct {res.get('correct')} failed {res.get('failed')} {values}"),
                  flush=True)
        results.append(pair)
    print(f"\n{'metric':<14}{'better':>7}  {'A median [q1, q3]':>30}  "
          f"{'B median [q1, q3]':>30}  {'B/A':>7}  B wins")
    for name, (better, a, b, ratio, wins, n) in summary(results, directions).items():
        print(f"{name:<14}{better:>7}  {f'{a[1]:.6g} [{a[0]:.6g}, {a[2]:.6g}]':>30}  "
              f"{f'{b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}]':>30}  {ratio:>7.4f}  {wins}/{n}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
