#!/usr/bin/env python3
"""Whole-stack benchmark of the GHM reproduction.

Builds perfbench/ (its own CMake package, compiled against ../src) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs
one workload:

  python3 perfbench/run.py --workload link-chaos --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: every end-to-end metric of
BENCHMARK.json with --trace 0, every per-layer metric with --trace 1.

Other modes:

  --selftest            feed every output check a tampered result
  --repeat K            steadiness: K runs per workload (seeds seed..seed+K-1),
                        median and quartiles of every end-to-end metric
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["link-chaos", "fleet-1e5", "fabric-grid", "wire-udp", "fuzz-ghm"]
OPTIMISED = {"Release", "RelWithDebInfo"}


def run_timeout(seconds):
    """A run measures for `seconds`, then probes and checks untimed."""
    return 120 + 3 * seconds


def fail(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def cache_value(bdir, key):
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail(2, "cmake configure failed (are the program sources in src/?)")
    build_type = cache_value(bdir, "CMAKE_BUILD_TYPE")
    flags = cache_value(bdir, "CMAKE_CXX_FLAGS") + " " + os.environ.get("CXXFLAGS", "")
    if build_type not in OPTIMISED or "-fsanitize" in flags or "-O0" in flags:
        fail(3, "refusing to time build type %r with flags %r in %s"
             % (build_type, flags.strip(), bdir))
    if subprocess.run(["cmake", "--build", bdir, "-j", "4"],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail(2, "build failed")
    return os.path.join(bdir, "s2d_perfbench"), build_type


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return os.environ.get("S2D_GIT_SHA", "unknown")


def source_sha256():
    """Digest of the measured sources: src/ and perfbench/."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_binary(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    timeout = run_timeout(seconds)
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(5, "%s did not finish within %d s" % (workload, timeout))
    sys.stderr.write(out.stderr)
    if out.returncode != 0:
        fail(out.returncode, "%s exited with %d" % (workload, out.returncode))
    lines = out.stdout.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


def validate(result, spec, trace):
    """The result line must hold exactly the metrics BENCHMARK.json names."""
    want = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    names = [m["name"] for m in want]
    if sorted(got) != sorted(names):
        missing = sorted(set(names) - set(got))
        extra = sorted(set(got) - set(names))
        fail(4, "metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (missing, extra))
    for m in want:
        if got[m["name"]]["unit"] != m["unit"]:
            fail(4, "unit of %s is %s, BENCHMARK.json says %s"
                 % (m["name"], got[m["name"]]["unit"], m["unit"]))


def steadiness(binary, spec, workloads, seed, seconds, k):
    """K runs per workload; median, quartiles and spread of each metric."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for w in workloads:
        runs = []
        for i in range(k):
            _, res = run_binary(binary, w, seed + i, seconds, 0)
            if not res["correct"]:
                fail(1, "%s seed %d: correct is false" % (w, seed + i))
            runs.append(res)
        shares = sorted({r["failed"] / r["attempted"] if r["attempted"] else None
                         for r in runs}, key=str)
        print("# %s: %d runs, failed share %s" % (w, k, shares))
        print("# %-24s %14s %14s %14s %8s %6s" %
              ("metric", "q1", "median", "q3", "spread", "bound"))
        report[w] = {}
        for name in bounds:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= bounds[name] / 3 else "  > bound/3"
            print("# %-24s %14.6g %14.6g %14.6g %8.4f %6.2f%s" %
                  (name, q1, med, q3, spread, bounds[name], flag))
            report[w][name] = {"q1": q1, "median": med, "q3": q3,
                               "spread": spread, "values": vals}
    print(json.dumps(report))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--repeat", type=int, default=0)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        fail(2, "BENCHMARK.json not found at the repository root")
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    binary, build_type = build()
    print("# perfbench git_sha=%s source_sha256=%s build_type=%s"
          % (git_sha(), source_sha256(), build_type), flush=True)

    if args.selftest:
        code = subprocess.run([binary, "--selftest"],
                              timeout=run_timeout(0)).returncode
        sys.exit(code)
    if args.repeat:
        workloads = [args.workload] if args.workload else WORKLOADS
        steadiness(binary, spec, workloads, args.seed, seconds, args.repeat)
        return
    if not args.workload:
        fail(2, "--workload is required")
    notes, result = run_binary(binary, args.workload, args.seed, seconds, args.trace)
    validate(result, spec, args.trace)
    for line in notes:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
