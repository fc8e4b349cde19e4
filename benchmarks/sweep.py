"""Repeat the benchmark over seeds and summarize the spread.

    python3 benchmarks/sweep.py --seeds 0-9 --seconds 30 [--workloads lme,brw]
        [--out benchmarks/baseline.json]

Runs ``run.py`` once per (workload, seed), untraced, each in its own
process, and prints for every end-to-end metric the median, the first
and third quartiles (``statistics.quantiles(n=4)``) and the quartile
distance as a share of the median.  With ``--out`` it also writes the
machine description, the workload configs and these figures as a baseline
file.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _openblas(libs_dir: str) -> list[dict]:
    """Version string and thread count of each OpenBLAS bundled in a wheel."""
    out = []
    for path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                info["config"] = get_config().decode()
                info["threads"] = get_threads()
                break
        out.append(info)
    return out


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with open("/proc/cpuinfo", encoding="utf-8") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        read = lambda name: Path(index, name).read_text().strip()  # noqa: E731
        if read("type") in ("Unified", "Data"):
            caches[f"L{read('level')}"] = read("size")
    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "caches": caches,  # as seen by cpu 0; L3 is shared by all cores
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _openblas(os.path.dirname(numpy.__file__) + ".libs"),
        "openblas_scipy": _openblas(os.path.dirname(scipy.__file__) + ".libs"),
    }


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    seeds = _seeds(args.seeds)
    report = {}
    for name in args.workloads.split(","):
        runs = [run_once(name, s, args.seconds) for s in seeds]
        metrics = {
            m: spread([r["metrics"][m]["value"] for r in runs])
            for m in runs[0]["metrics"]
        }
        report[name] = {
            "why": WORKLOADS[name].why,
            "configs": [list(c) for c in WORKLOADS[name].configs],
            "seeds": seeds,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
        for m, s in metrics.items():
            print(
                f"{name:11s} {m:12s} median {s['median']:10.4f}  q1 {s['q1']:10.4f}  "
                f"q3 {s['q3']:10.4f}  spread {s['spread']:.4f}",
                flush=True,
            )
        print(f"{name:11s} checks attempted {report[name]['attempted']} "
              f"failed {report[name]['failed']}", flush=True)
    if args.out is not None:
        payload = {"machine": machine(), "run_seconds": args.seconds, "workloads": report}
        args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
