#!/usr/bin/env python3
"""Host-cost benchmark of the bftsim simulator.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

--workload all runs the four workloads one after another, each in its own
process, and ends with a summary table and one JSON line keyed by workload.

Builds the simulator and perfbench/bin/hostbench.exe from source with dune
(the dune cache is disabled, so everything stays inside the checkout's
_build directory), then runs one workload in a fresh process.  The last
line of standard output is the JSON result; everything above it is the
human-readable report.  Exits non-zero, without a result, if the build or
the run fails or the result line is malformed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ["fig2-scale", "paper-sweep", "load-geo5", "chaos-recovery"]
TARGET = "./perfbench/bin/hostbench.exe"
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", TARGET],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build did not run: %s" % e)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-4000:])
        fail("build failed (exit %d)" % done.returncode)


def run(workload, args):
    """Runs one workload; returns its report lines and its parsed result."""
    exe = os.path.join("_build", "default", "perfbench", "bin", "hostbench.exe")
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--spawn-time", repr(time.time())]
    # Its own process group, so a timeout also stops the host-speed
    # reference processes it starts.
    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    except OSError as e:
        fail("benchmark did not start: %s" % e)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("benchmark did not complete within %d s" % RUN_TIMEOUT_S)
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write("\n".join(lines[-20:]) + "\n")
        fail("benchmark exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has unexpected keys: %s" % sorted(result))
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace == "1" else "end_to_end"]}
    reported = {k: v["unit"] for k, v in result["metrics"].items()}
    if reported != declared:
        fail("metrics differ from BENCHMARK.json: %s"
             % sorted(set(reported.items()) ^ set(declared.items())))
    return lines[:-1], lines[-1], result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    build()
    if args.workload != "all":
        report, last, _ = run(args.workload, args)
        print("\n".join(report))
        print(last)
        return
    results = {}
    for workload in WORKLOADS:
        report, last, results[workload] = run(workload, args)
        print("==== %s" % workload)
        print("\n".join(report))
    print("==== summary")
    names = list(results[WORKLOADS[0]]["metrics"])
    print("%-28s" % "metric" + "".join("%16s" % w for w in WORKLOADS))
    for name in names:
        unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
        print("%-28s" % ("%s (%s)" % (name, unit))
              + "".join("%16.6g" % results[w]["metrics"][name]["value"] for w in WORKLOADS))
    for key in ["attempted", "failed", "correct"]:
        print("%-28s" % key + "".join("%16s" % results[w][key] for w in WORKLOADS))
    print(json.dumps(results))


if __name__ == "__main__":
    main()
