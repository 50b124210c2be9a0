"""Alternating parent/change pairs of the benchmark, one run at a time.

For each workload and each seed, runs the command ``BENCHMARK.json``
names (``python3 perfbench/run.py --workload W --seed N --seconds S``) once
in the parent checkout and once in the change checkout, each from the root
of its checkout. The parent goes first on even pairs and the change on odd
ones, so drift in the machine's speed falls on both sides alike.

For every end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles (inclusive method) over the runs, the median and
quartiles of the per-pair ratio change / parent (drift that slows both
runs of a pair alike cancels in it, while it widens each side's spread),
the number of pairs the change won, ties counting for neither, and two
sets of verdicts.

From the side medians:
* ``WORSE THAN BOUND``: the change's median is worse than the parent's by
  more than the metric's bound;
* ``UNRESOLVED``: the parent's own runs spread too widely to tell: their
  interquartile range is wider than the bound times the parent's median,
  and not every change run beats every parent run;
* ``GAIN``: the change won at least nine tenths of the pairs, and its
  median beats the parent's by more than the parent's interquartile range.

From the per-pair ratios, against the line 1 - bound (higher is better) or
1 + bound (lower is better):
* ``PAIRED WORSE``: the median ratio is past the line;
* ``PAIRED UNRESOLVED``: the ratio's quartiles straddle the line;
* ``PAIRED GAIN``: the change won at least nine tenths of the pairs, and
  the ratio's worse quartile is past 1 on the better side.

``--out`` receives every run's final JSON line and ``env`` line, rewritten
after each run, and the summary at the end.

Reads ``BENCHMARK.json`` from the root of this checkout and imports nothing
from the program or its benchmark. Exits 1 if a run printed no result or
failed a check, or if either rule reads a metric worse than its bound; an
unresolved metric alone leaves the exit status at 0.

Usage:
    python scripts/bench_pairs.py --parent ../parent --change . \\
        --workload certify32 --seeds 1800 1801 --out pairs.json
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# summary key -> printed verdict, after WORSE THAN BOUND
FLAGS = (("unresolved", "UNRESOLVED"), ("gain", "GAIN"), ("paired_worse", "PAIRED WORSE"),
         ("paired_unresolved", "PAIRED UNRESOLVED"), ("paired_gain", "PAIRED GAIN"))


def _run(checkout: Path, command: list[str], workload: str, seed: int,
         seconds: float) -> dict:
    """One benchmark run; its final JSON line and env line, or its failure."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {"exit_code": proc.returncode, "env": env, "result": result,
            "stderr_tail": proc.stderr.splitlines()[-5:]}


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and end-to-end metric: each side's quartiles, those of
    the per-pair ratio change / parent, the pairs the change won, and the
    verdicts of both rules: from the side medians, whether the change is
    within its bound, whether the parent's spread leaves the comparison
    unresolved and whether the change shows a gain; from the ratios, the
    same three as ``paired_worse``, ``paired_unresolved`` and
    ``paired_gain``."""
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict] = {}
        for r in runs:
            if r["workload"] == workload and r["result"] is not None:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
        pairs = {p: sides for p, sides in pairs.items() if len(sides) == 2}
        if not pairs:
            continue
        out[workload] = {}
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            values = {side: [pairs[p][side][name]["value"] for p in sorted(pairs)]
                      for side in SIDES}
            better = sum((c < p) if lower else (c > p)
                         for p, c in zip(values["parent"], values["change"]))
            stats = {side: _quartiles(values[side]) for side in SIDES}
            ratio = _quartiles([c / p for p, c in zip(values["parent"], values["change"])])
            line = 1 + m["bound"] if lower else 1 - m["bound"]
            worse_quartile = ratio["q3"] if lower else ratio["q1"]
            parent, change = stats["parent"]["median"], stats["change"]["median"]
            worse = (change - parent) if lower else (parent - change)
            spread = stats["parent"]["q3"] - stats["parent"]["q1"]
            beats_all = (max(values["change"]) < min(values["parent"]) if lower
                         else min(values["change"]) > max(values["parent"]))
            out[workload][name] = {
                **stats, "ratio": ratio, "runs": values, "pairs": len(pairs),
                "change_better_pairs": better,
                "bound": m["bound"],
                "within_bound": worse <= m["bound"] * abs(parent),
                "unresolved": spread > m["bound"] * abs(parent) and not beats_all,
                "gain": 10 * better >= 9 * len(pairs) and -worse > spread,
                "paired_worse": ratio["median"] > line if lower else ratio["median"] < line,
                "paired_unresolved": ratio["q1"] < line < ratio["q3"],
                "paired_gain": 10 * better >= 9 * len(pairs)
                and (worse_quartile < 1 if lower else worse_quartile > 1),
            }
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: every one)")
    parser.add_argument("--seeds", type=int, nargs="+", required=True,
                        help="one pair of runs per seed")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"],
                        help="measured seconds per run (default: BENCHMARK.json's)")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: list[dict] = []
    record = {"command": bench["command"], "seconds": args.seconds, "seeds": args.seeds,
              "checkouts": {side: str(path) for side, path in checkouts.items()},
              "runs": runs}
    failed = 0
    for workload in args.workload or names:
        for pair, seed in enumerate(args.seeds):
            for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
                run = _run(checkouts[side], bench["command"], workload, seed, args.seconds)
                runs.append({"workload": workload, "pair": pair, "seed": seed,
                             "side": side, **run})
                ok = run["exit_code"] == 0 and run["result"] is not None \
                    and run["result"]["correct"]
                failed += not ok
                print(f"{workload} seed {seed} {side}: "
                      + ("ok" if ok else f"FAILED (exit {run['exit_code']})"), flush=True)
                args.out.write_text(json.dumps(record, indent=1) + "\n")
    record["summary"] = summary = summarise(runs, bench["end_to_end"])
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    flagged = 0
    for workload, per_metric in summary.items():
        print(f"\n{workload}: parent median [q1, q3] -> change median [q1, q3], "
              f"change / parent per pair median [q1, q3], change better in n of pairs")
        for name, s in per_metric.items():
            p, c, r = s["parent"], s["change"], s["ratio"]
            flag = ("" if s["within_bound"] else "  WORSE THAN BOUND") \
                + "".join(f"  {label}" for key, label in FLAGS if s[key])
            flagged += not s["within_bound"] or s["paired_worse"]
            print(f"  {name:14s} {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] -> "
                  f"{c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}], "
                  f"ratio {r['median']:.4g} [{r['q1']:.4g}, {r['q3']:.4g}], "
                  f"{s['change_better_pairs']} of {s['pairs']}{flag}")
    return 1 if failed or flagged else 0


if __name__ == "__main__":
    sys.exit(main())
