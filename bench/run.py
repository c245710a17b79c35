"""Benchmark entry point.

    python3 bench/run.py --workload {compositional,direct,tool-queries}
                         --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout and imports the package from
src/.  The workload runs in a fresh child process (bench/journeys.py),
so its peak RSS includes import and set-up; set-up time is the median
wall time of fresh `python -m unchoosable.cli table --json` processes.
Human-readable lines come first; the last line of stdout is one JSON
object with correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.
Exits 2 without a result when the checkout holds no package.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402

WORKLOADS = ("compositional", "direct", "tool-queries")
SETUP_RUNS = 7
DEADLINE_S = 170.0  # the whole run, children included

VERDICT_GROUPS = ("verify", "check", "minor", "color")
MATERIALIZE_GROUPS = ("build", "write", "read")

MODULES = ("minors", "listcolor", "graphs", "graphio", "construction", "certificates")
# per-layer metric and unit; all are printed
LAYER_KEYS = (
    ("minors.has_clique_minor.s", "s"),
    ("minors.has_clique_minor.calls", "count"),
    ("minors.has_clique_minor.nodes", "count"),
    ("minors.has_clique_minor.nodes_per_s", "1/s"),
    ("minors.has_clique_minor.positive", "count"),
    ("minors.has_clique_minor.p99_ms", "ms"),
    ("listcolor.l_colorable.s", "s"),
    ("listcolor.l_colorable.calls", "count"),
    ("listcolor.l_colorable.backtracks", "count"),
    ("listcolor.l_colorable.vertices", "count"),
    ("graphs.degeneracy.s", "s"),
    ("graphs.degeneracy.calls", "count"),
    ("graphs.paste.s", "s"),
    ("graphs.paste.calls", "count"),
    ("graphs.adj_bytes", "bytes"),
    ("graphio.write_graph6.s", "s"),
    ("graphio.read_graph6.s", "s"),
    ("graphio.json.s", "s"),
    ("graphio.g6_bytes", "bytes"),
    ("construction.build.s", "s"),
    ("construction.build.calls", "count"),
    ("construction.build.vertices", "count"),
    ("construction.color_pattern_classes.s", "s"),
    ("construction.classes", "count"),
    ("construction.gadget_blocked_detail.calls", "count"),
    ("construction.solver_runs_per_class", "ratio"),
    ("construction.verify_construction.s", "s"),
    ("certificates.check_certificate.s", "s"),
    ("certificates.json_parse.s", "s"),
    ("certificates.json_dump.s", "s"),
    ("certificates.cert_bytes", "bytes"),
) + tuple((f"{m}.self_s", "s") for m in MODULES) + (
    ("trace.unattributed_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_s", "s"),
) + tuple(
    (f"rows.{wl}.{inst}.{k}", u)
    for wl, insts in oracles.ROWS.items()
    for inst in insts
    for k, u in (("s", "s"), ("nodes", "count"))
)
# Times of layers that some workloads never call.  They are printed but
# left out of the result line, where a time that reads 0 on every run
# of a workload would look like a constant.
PRINTED_ONLY = frozenset(
    (
        "graphs.degeneracy.s",
        "graphs.paste.s",
        "graphio.write_graph6.s",
        "graphio.read_graph6.s",
        "graphio.json.s",
        "construction.build.s",
        "construction.color_pattern_classes.s",
        "construction.verify_construction.s",
        "certificates.json_parse.s",
        "certificates.json_dump.s",
        "graphs.self_s",
        "graphio.self_s",
        "construction.self_s",
    )
    + tuple(f"rows.{wl}.{inst}.s" for wl, insts in oracles.ROWS.items() for inst in insts)
)
PER_LAYER = tuple((n, u) for n, u in LAYER_KEYS if n not in PRINTED_ONLY)


def _package_present() -> bool:
    return (ROOT / "src" / "unchoosable" / "__init__.py").is_file()


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(deadline: float) -> tuple[list[float], list[str]]:
    """Wall time of fresh CLI processes; their output is checked too."""
    times, failures = [], []
    want = {str(p): oracles.lower_bound_row(p) for p in range(3, 12)}
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "unchoosable.cli", "table", "--json"],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        times.append(time.perf_counter() - t0)
        try:
            got = {p: row["lower_bound"] for p, row in json.loads(proc.stdout).items()}
        except (ValueError, KeyError, TypeError, AttributeError):
            got = None
        if proc.returncode != 0 or got != want:
            failures.append(f"setup: table --json exited {proc.returncode} with {got}")
    return times, failures


def run_child(args, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "journeys.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--spans", str(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile(values: list[float], share: float) -> float:
    values = sorted(values)
    return values[min(len(values) - 1, int(share * len(values)))] if values else 0.0


def end_to_end(child: dict, setup_times: list[float], failed: int) -> tuple[dict, dict]:
    """(gated metrics, detail): every time is a sum of per-step minima."""
    units = child["untraced"]
    groups: dict[str, float] = {}
    for per_unit in units.values():
        for group, t in per_unit.items():
            groups[group] = groups.get(group, 0.0) + t
    minor_times = [u["minor"] for u in units.values() if "minor" in u]

    def g(*names):
        return sum(groups.get(n, 0.0) for n in names)

    attempted = child["attempted"] + len(setup_times)
    metrics = {
        "verify_check_s": (g(*VERDICT_GROUPS), "s"),
        "journey_s": (sum(groups.values()), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (child["peak_rss_mb"], "MB"),
    }
    detail = {
        "verify_s": (g("verify"), "s"),
        "check_s": (g("check"), "s"),
        "materialize_s": (g(*MATERIALIZE_GROUPS), "s"),
        "cert_bytes": (child["cert_bytes"], "bytes"),
        "minor_s": (g("minor"), "s"),
        "minor_p99_ms": (1e3 * _percentile(minor_times, 0.99), "ms"),
        "minor_queries": (len(minor_times), "count"),
        "color_s": (g("color"), "s"),
        "failed_frac": (failed / attempted, "ratio"),
        "setup_s_spread": (max(setup_times) - min(setup_times), "s"),
        "passes": (child["passes"], "count"),
        "units": (child["units"], "count"),
    }
    for inst in oracles.ROWS.get(child["workload"], ()):
        s = sum(t for group, t in units[inst].items() if group in VERDICT_GROUPS)
        detail[f"row.{inst}.verify_check_s"] = (s, "s")
    return metrics, detail


def per_layer(child: dict) -> dict:
    tr = child["traced"]
    lay = tr["layers"]
    vals = {name: lay.get(name, 0) for name, _ in LAYER_KEYS}
    minor_s = lay.get("minors.has_clique_minor.s", 0.0)
    vals["minors.has_clique_minor.nodes_per_s"] = (
        lay.get("minors.has_clique_minor.nodes", 0) / minor_s if minor_s else 0.0
    )
    vals["minors.has_clique_minor.p99_ms"] = 1e3 * _percentile(tr["minor_unit_s"], 0.99)
    vals["graphs.adj_bytes"] = tr["adj_bytes"]
    vals["graphio.g6_bytes"] = lay.get("graphio.write_graph6.g6_bytes", 0)
    vals["construction.classes"] = lay.get("construction.color_pattern_classes.classes", 0)
    calls = lay.get("construction.gadget_blocked_detail.calls", 0)
    runs = lay.get("construction.gadget_blocked_detail.solver_runs", 0)
    vals["construction.solver_runs_per_class"] = runs / calls if calls else 0.0
    vals["certificates.cert_bytes"] = child["cert_bytes"]
    for m in MODULES:
        vals[f"{m}.self_s"] = sum(
            v for k, v in lay.items() if k.startswith(m + ".") and k.endswith(".self_s")
        )
    untraced = sum(sum(u.values()) for u in child["untraced"].values())
    vals["trace.unattributed_s"] = lay.get("root.self_s", 0.0)
    vals["trace.traced_s"] = tr["traced_s"]
    vals["trace.untraced_s"] = untraced
    vals["trace.overhead_s"] = tr["traced_s"] - untraced
    for inst, row in tr["rows"].items():
        for k in ("s", "nodes"):
            key = f"rows.{child['workload']}.{inst}.{k}"
            if key in vals:
                vals[key] = row[k]
    return {name: (vals[name], unit) for name, unit in LAYER_KEYS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not _package_present():
        print(f"no package under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S

    setup_times, setup_failures = ([], []) if args.trace else measure_setup(deadline)
    child = run_child(args, deadline)
    failures = setup_failures + child["failures"]
    for line in failures:
        print("FAILED", line)

    if args.trace:
        detail = per_layer(child)
        metrics = {name: detail.pop(name) for name, _ in PER_LAYER}
    else:
        metrics, detail = end_to_end(child, setup_times, len(failures))
    print(f"workload {args.workload} seed {args.seed}: {child['passes']} passes "
          f"over {child['units']} units")
    for name, (value, unit) in {**metrics, **detail}.items():
        if value or name in metrics or name == "failed_frac":  # skip what does not apply
            print(f"  {name:48s} {value:>14.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": child["attempted"] + len(setup_times),
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
