#!/usr/bin/env python3
"""The gdstbc benchmark.  Run from the root of a checkout:

    python3 perfbench/run.py --workload sim-fastfade-small --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

gdstbc is imported from the checkout's src/ (pure Python, nothing to
build).  Every task runs in a fresh child process (perfbench/child.py):

* --trace 0: five measurement children in turn.  Each sets up, repeats
  the workload's sweep for a fifth of --seconds and checks every result.
  Prints the end-to-end metrics: frames_per_s (median over all sweeps of
  the five children of information frames per second of run_sim wall
  time), setup_s (median of the five set-ups), peak_rss_mb (median over
  the children of each one's ru_maxrss plus its largest worker's).
* --trace 1: one measurement child that interleaves traced sweeps with
  untraced ones, and one micro-benchmark child.  Prints the per-layer
  metrics.

Operations whose check fails are counted, never fatal; the last line of
stdout is the JSON result.  Spans and a full report (with provenance) go
to .perfbench/ in the checkout.  Exits 2 without a result when the
checkout has no gdstbc sources, 1 when a child fails or runs too long.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

MEASURE_CHILDREN = 5
#: Each workload's run must end within the benchmark's 180 s limit.
RUN_DEADLINE_S = 170.0
OUT_DIR = ".perfbench"


class BenchError(RuntimeError):
    pass


def run_child(root: Path, mode: str, args, deadline: float, seconds=None, part=0) -> dict:
    """Run child.py in its own process group; kill the group if it overruns."""
    cmd = [sys.executable, str(HERE / "child.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds or args.seconds),
           "--trace", str(args.trace), "--part", str(part), "--out-dir", str(root / OUT_DIR)]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{mode} child overran the {RUN_DEADLINE_S:g} s limit") from None
    finally:
        # Pool workers left behind by a failed child share its process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict):
        raise BenchError(f"{mode} child printed no result")
    src = root / "src" / "gdstbc"
    if result.get("gdstbc_file") and Path(result["gdstbc_file"]).resolve().parent != src:
        raise BenchError(f"gdstbc was imported from {result['gdstbc_file']}, not {src}")
    return result


def git_commit(root: Path):
    """HEAD of the checkout when it is itself a git work tree, else None."""
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return None
    return lines[1]


def source_sha256(root: Path) -> str:
    h = hashlib.sha256()
    src = root / "src" / "gdstbc"
    for p in sorted(list(src.rglob("*.py")) + list(src.rglob("*.pyx"))):
        h.update(str(p.relative_to(src)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def run_workload(root: Path, spec: dict, args) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    load_start = os.getloadavg()
    wl = WORKLOADS[args.workload]
    if args.trace:
        meas = run_child(root, "measure", args, deadline)
        micro = run_child(root, "micro", args, deadline)
        values = {**meas["metrics"], **micro["metrics"]}
        children = [meas, micro]
        detail = {"bound_holds_per_call": micro["bound_holds"], "spans": meas["spans"],
                  "spans_file": meas["spans_file"], "frames_per_s": meas["frames_per_s"]}
    else:
        children = [run_child(root, "measure", args, deadline,
                              seconds=args.seconds / MEASURE_CHILDREN, part=part)
                    for part in range(MEASURE_CHILDREN)]
        meas = children[0]
        samples = [x for c in children for x in c["frames_per_s"]]
        med = statistics.median
        values = {"frames_per_s": med(samples),
                  "setup_s": med(c["setup_s"] for c in children),
                  "peak_rss_mb": med(c["peak_rss_mb"] for c in children)}
        detail = {"frames_per_s_samples": [c["frames_per_s"] for c in children],
                  "setup_s_samples": [c["setup_s"] for c in children]}
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"no value for {', '.join(missing)}")
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    return {
        "workload": args.workload, "why": why, "layer": wl.layer,
        "provenance": {
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
            "python": platform.python_version(), "numpy": meas["numpy"],
            "backend": meas["backend"], "git_commit": git_commit(root),
            "source_sha256": source_sha256(root), "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
        },
        "detail": detail,
        "result": {
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        },
    }


def report_lines(rep: dict) -> list[str]:
    res = rep["result"]
    m = res["metrics"]
    lines = [f"workload {rep['workload']}: {rep['why']}",
             f"  stresses: {rep['layer']}",
             f"  provenance: {json.dumps(rep['provenance'])}"]
    for name, v in sorted(m.items()):
        lines.append(f"  {name:38s} {v['value']:.6g} {v['unit']}")
    lines.append(f"  {'failed_ops_frac':38s} {res['failed'] / res['attempted']:.6g} "
                 f"({res['failed']} of {res['attempted']} operations)")
    if rep["provenance"]["trace"] and m["codebook.bound_holds"]["value"] == 0.0:
        lines.append("  note: verify_full_diversity returned bound_holds=False "
                     f"({rep['detail']['bound_holds_per_call']}); known false alarm "
                     "of the absolute bound_slack, see perfbench/README.md")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd().resolve()
    if not (root / "src" / "gdstbc" / "__init__.py").is_file() \
            or not (root / "BENCHMARK.json").is_file():
        print("perfbench: run from the root of a gdstbc checkout "
              "(src/gdstbc/ and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    (root / OUT_DIR).mkdir(exist_ok=True)
    reports = []
    for name in names:
        args.workload = name
        try:
            rep = run_workload(root, spec, args)
        except (BenchError, OSError, ValueError, KeyError) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        reports.append(rep)
        out = root / OUT_DIR / f"{name}-trace{args.trace}.json"
        out.write_text(json.dumps(rep, indent=2) + "\n")
        print("\n".join(report_lines(rep)), flush=True)
    if len(reports) == 1:
        final = reports[0]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in reports),
            "attempted": sum(r["result"]["attempted"] for r in reports),
            "failed": sum(r["result"]["failed"] for r in reports),
            "metrics": {f"{r['workload']}/{k}": v for r in reports
                        for k, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
