#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  Builds the measuring program and
the maxis_lb executable with dune in perfbench/_stage (the benchmark's
own dune project, perfbench/_project, beside copies of the tree's lib/
and bin/), runs one workload in a process of its own, checks its outputs, prints a table of its metrics and, as the
last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics.  The full record of the run (host
fingerprint, every sample with its median and quartiles, spans, counter
diffs) is written to perfbench/out/results/.
"""

import argparse
import filecmp
import glob
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170
PROJECT = os.path.join("perfbench", "_project")
STAGE = os.path.join("perfbench", "_stage")
SOURCES = ["lib", "bin"]  # copied from the tree into the stage
TARGETS = ["./bench.exe", "./bin/maxis_lb.exe"]


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def find_dune():
    """dune from PATH, else from an opam switch; returns (dune, env)."""
    env = dict(os.environ)
    dune = shutil.which("dune")
    if dune is None:
        for cand in sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune"))):
            dune = cand
            env["PATH"] = os.path.dirname(cand) + os.pathsep + env.get("PATH", "")
            break
    if dune is None:
        fail("dune not found")
    # Keep every build product inside the source tree.
    env["DUNE_CACHE"] = "disabled"
    return dune, env


def remove(path):
    if os.path.isdir(path) and not os.path.islink(path):
        shutil.rmtree(path)
    else:
        os.remove(path)


def copy(src, dst):
    """Make dst a copy of src (file or tree), rewriting only files whose
    bytes differ, so that dune finds nothing to rebuild when nothing
    changed."""
    if os.path.isdir(src):
        if os.path.lexists(dst) and not os.path.isdir(dst):
            remove(dst)
        os.makedirs(dst, exist_ok=True)
        names = set(os.listdir(src))
        for name in set(os.listdir(dst)) - names:
            remove(os.path.join(dst, name))
        for name in names:
            copy(os.path.join(src, name), os.path.join(dst, name))
    elif not (os.path.isfile(dst) and filecmp.cmp(src, dst, shallow=False)):
        if os.path.lexists(dst):
            remove(dst)
        shutil.copyfile(src, dst)


def stage():
    """STAGE holds the benchmark's project and copies of the tree's
    SOURCES, and nothing else but dune's _build."""
    for name in SOURCES:
        if not os.path.isdir(name):
            fail("no %s/ here: run from the root of the source tree" % name, 2)
    if not os.path.isdir(PROJECT):
        fail("no %s/ here" % PROJECT, 2)
    entries = {name: os.path.join(PROJECT, name) for name in os.listdir(PROJECT)}
    entries.update({name: name for name in SOURCES})
    os.makedirs(STAGE, exist_ok=True)
    for name in set(os.listdir(STAGE)) - set(entries) - {"_build"}:
        remove(os.path.join(STAGE, name))
    for name, src in entries.items():
        copy(src, os.path.join(STAGE, name))


def build():
    stage()
    dune, env = find_dune()
    try:
        proc = subprocess.run(
            [dune, "build", "--root", STAGE, "--display", "quiet"] + TARGETS,
            stdout=sys.stderr,
            stderr=sys.stderr,
            env=env,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0:
        fail("build failed (exit %d)" % proc.returncode)


def git_rev():
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(".git", "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def l3_bytes():
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as f:
            s = f.read().strip()
        mult = {"K": 1024, "M": 1024 * 1024}.get(s[-1], 1)
        return int(s.rstrip("KM")) * mult
    except (OSError, ValueError):
        return None


def summary(values):
    values = sorted(values)
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"samples": values, "median": med, "q1": q1, "q3": q3}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e, 2)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload, 2)

    build()
    cmd = [
        os.path.join(STAGE, "_build", "default", "bench.exe"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--maxis-lb", os.path.join(STAGE, "_build", "default", "bin", "maxis_lb.exe"),
    ]
    # Own process group, so that a daemon the workload started is
    # stopped with it whatever happens.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if stdout is None:
        fail("workload timed out")
    if proc.returncode != 0:
        fail("workload exited %d" % proc.returncode)
    lines = stdout.decode().strip().splitlines()
    if not lines:
        fail("workload printed nothing")
    raw = json.loads(lines[-1])

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    stats = {k: summary(v) for k, v in raw["samples"].items()}
    correct = raw["failed"] == 0 and raw["attempted"] >= 1
    metrics = {}
    for m in declared:
        name = m["name"]
        if name in stats:
            value = stats[name]["median"]
        elif args.trace:
            value = 0.0  # the layer is not exercised by this workload
        else:
            fail("workload did not measure %s" % name)
        if not math.isfinite(value):
            correct = False
            value = 0.0
        metrics[name] = {"value": value, "unit": m["unit"]}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "host": {
            "domains": raw["domains"],
            "l3_bytes": l3_bytes(),
            "ocaml_version": raw["ocaml_version"],
            "git_rev": git_rev(),
            "OCAMLRUNPARAM": os.environ.get("OCAMLRUNPARAM", ""),
        },
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "failures": raw["failures"],
        "metrics": {k: dict(v, unit=units.get(k, "")) for k, v in stats.items()},
        "spans": raw["spans"],
        "counters": raw["counters"],
    }
    out = os.path.join("perfbench", "out", "results")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1)

    print("workload %s  seed %d  trace %d  attempted %d  failed %d"
          % (args.workload, args.seed, args.trace, raw["attempted"], raw["failed"]))
    print("  host: " + " ".join("%s=%s" % kv for kv in record["host"].items()))
    for msg in raw["failures"]:
        print("  FAILED: " + msg)
    # Every metric the run measured, in BENCHMARK.json's order: an
    # untraced run also shows the workload's own figures (per_layer).
    for name in [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]:
        s = stats.get(name)
        if s is None:
            continue
        print("  %-32s %16.6g %-8s (q1 %.6g, q3 %.6g, n=%d)"
              % (name, s["median"], units.get(name, ""), s["q1"], s["q3"], len(s["samples"])))
    print("  record: " + path)
    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
