"""Fold the results in `.perfbench_out/` into `perfbench/BASELINE.json`.

    python3 perfbench/baseline.py

For each workload: the median of every plain-run metric across seeds, with
its quartile spread (IQR / median) and the seeds used; the median of every
traced-run metric; and the environment block of the first plain run.
"""

import json
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench_out"


def summarize(records: list) -> dict:
    values: dict = {}
    for record in records:
        for name, m in record["metrics"].items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])
    summary = {}
    for name, (unit, vals) in values.items():
        med = statistics.median(vals)
        entry = {"median": med, "unit": unit, "runs": len(vals)}
        if len(vals) >= 4 and med:
            q = statistics.quantiles(vals, n=4)
            entry["iqr_over_median"] = (q[2] - q[0]) / med
        summary[name] = entry
    return summary


def main() -> None:
    baseline = {}
    for path in sorted(OUT.glob("*_trace0.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        baseline.setdefault(record["workload"], {"plain": [], "traced": []})["plain"].append(
            record)
    for path in sorted(OUT.glob("*_trace1.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record["workload"] in baseline:
            baseline[record["workload"]]["traced"].append(record)
    result = {}
    for workload, runs in sorted(baseline.items()):
        plain = runs["plain"]
        result[workload] = {
            "seconds": plain[0]["seconds"],
            "seeds": sorted(r["seed"] for r in plain),
            "environment": plain[0]["environment"],
            "end_to_end": summarize(plain),
            "per_layer": summarize(runs["traced"]) if runs["traced"] else {},
        }
    (HERE / "BASELINE.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
