"""Self-test of the benchmark at tiny mesh sizes.

    python3 perfbench/selftest.py

Checks that:
- every workload runs in both modes, is correct, and prints every metric
  named in BENCHMARK.json with its unit, in the text lines and in the
  final JSON line;
- the precision rule is replayed on cad_adaptive and never on cad_fixed;
- a stream with one flipped payload byte is counted as a failed decode,
  whether it raises or decodes to a wrong mesh, without ending the run;
- in a directory holding only BENCHMARK.json and perfbench/, the
  benchmark exits non-zero without printing a result.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TIMEOUT = 170


def check(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def bench_command(workload: str, trace: int, cwd: Path,
                  size: str | None = "tiny"):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    if size:
        cmd += ["--size", size]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT)


def check_workload_run(workload: str, trace: int) -> dict:
    proc = bench_command(workload, trace, run.ROOT)
    label = f"{workload} --trace {trace}"
    check(proc.returncode == 0, f"{label} exited {proc.returncode}: "
          f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0
          and result["attempted"] >= 1, f"{label}: {lines[-1]}")
    spec = SPEC["per_layer" if trace else "end_to_end"]
    wanted = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == wanted, f"{label}: metrics/units {got} != {wanted}")
    for name, unit in wanted.items():
        value = result["metrics"][name]["value"]
        check(isinstance(value, (int, float)), f"{label}: {name}={value}")
        check(any(ln.startswith(f"metric {name} = ")
                  and ln.split(" = ", 1)[1].split()[1] == unit
                  for ln in lines), f"{label}: {name} not printed with {unit}")
    print(f"ok   {label}: {result['attempted']} operations")
    return result["metrics"]


def check_flipped_bytes() -> None:
    args = run.parse_args(["--workload", "cad_adaptive", "--seed", "1",
                           "--seconds", "1", "--size", "tiny"])
    bench = run.Bench(run.WORKLOADS["cad_adaptive"], args)
    bench.encode(bench.setup())
    check(bench.data is not None and bench.ops.failed == 0, "tiny encode")
    bench.check_full_decode(bench.data)
    check(bench.ops.failed == 0, "clean stream counted as failed")

    # The range decoder shifts the first byte of each chunk out of its
    # 32-bit code register unread, so flip the second byte of the base
    # geometry, first level geometry and completion chunks.
    chunks = bench.stream.chunks
    start = len(bench.data) - sum(len(c) for c in chunks)
    offsets = [start + sum(len(c) for c in chunks[:i]) + 1
               for i in (1, 3, len(chunks) - 1)]
    for pos in offsets:
        corrupt = bytearray(bench.data)
        corrupt[pos] ^= 0xFF
        before = bench.ops.failed
        bench.check_full_decode(bytes(corrupt))
        check(bench.ops.failed == before + 1,
              f"flipped payload byte {pos} not counted as failed")
        print(f"ok   flipped byte {pos}: {bench.ops.errors[-1][:100]}")


def check_bare_directory() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench_command("cad_adaptive", 0, bare, size=None)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "bare directory run exited 0")
    check('"correct"' not in proc.stdout, "bare directory run printed a result")
    print(f"ok   bare directory: exit {proc.returncode}, "
          f"{proc.stderr.strip().splitlines()[-1]}")


def main() -> int:
    check_flipped_bytes()
    calls = {}
    for workload in SPEC["workloads"]:
        name = workload["name"]
        check_workload_run(name, 0)
        layers = check_workload_run(name, 1)
        calls[name] = layers["quantize.assign_precision_calls"]["value"]
    check(calls["cad_fixed"] == 0, "assign_precision replayed on cad_fixed")
    check(calls["cad_adaptive"] > 0, "assign_precision not replayed on "
          "cad_adaptive")
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
