#!/usr/bin/env python3
"""Cross-commit digests of the simulator's observable output.

Runs `lbsq_sim` over a fixed grid of configurations and prints the sha256
of each run's stdout (minus the wall-clock and engine lines), its
`--trace` JSONL and its `--metrics` JSON, one line per file:

    <sha256>  <config> <stdout|trace|metrics>

A change that must keep the simulator's behaviour byte-identical (a
performance change, a refactor) regenerates nothing: `--check` recomputes
the digests and diffs them against the checked-in file.

    python3 tools/sim_digests.py --sim build/tools/lbsq_sim > tests/golden/sim_digests.txt
    python3 tools/sim_digests.py --sim build/tools/lbsq_sim --check tests/golden/sim_digests.txt
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

# Large enough that a kNN span covers tens of buckets per channel, small
# enough that the whole grid runs in a few seconds.
BASE = ["--world=6", "--warmup=10", "--duration=10", "--threads=2",
        "--hist=access_latency,tuning_time"]

# The burst-fault set the CI fault job runs (one channel only: faults with
# more than one shard are a usage error).
FAULTS = ["--fault-burst-loss=0.8", "--fault-burst-frac=0.3",
          "--fault-burst-len=10", "--fault-corrupt=0.05",
          "--fault-peer-stale=0.05", "--fault-peer-truncate=0.05",
          "--fault-screen", "--fault-deadline=4000", "--fault-seed=3"]

VARIANTS = [
    ("knn", ["--query=knn"]),
    ("window", ["--query=window"]),
    ("churn", ["--update-interval-events=20"]),
    ("tree", ["--index=tree"]),
]


def configs():
    for shards in (1, 4):
        for name, flags in VARIANTS:
            yield f"s{shards}-{name}", [f"--shards={shards}"] + flags
    for query in ("knn", "window"):
        yield f"s1-faults-{query}", ["--shards=1", f"--query={query}"] + FAULTS


def stable_stdout(text):
    # Wall time and the engine banner (thread count) vary run to run.
    return "".join(line for line in text.splitlines(keepends=True)
                   if "wall time" not in line and "engine" not in line)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def digests(sim):
    sim = os.path.abspath(sim)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, flags in configs():
            # Relative output names keep the paths the simulator echoes
            # identical on every machine.
            cmd = [sim] + BASE + flags + ["--trace=trace.jsonl",
                                          "--metrics=metrics.json"]
            out = subprocess.run(cmd, cwd=tmp, check=True,
                                 capture_output=True, text=True).stdout
            lines.append(f"{sha256(stable_stdout(out).encode())}  {name} stdout")
            for kind, path in (("trace", "trace.jsonl"),
                               ("metrics", "metrics.json")):
                with open(os.path.join(tmp, path), "rb") as f:
                    lines.append(f"{sha256(f.read())}  {name} {kind}")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sim", default="build/tools/lbsq_sim")
    parser.add_argument("--check", metavar="FILE",
                        help="diff the digests against FILE; exit 1 on any "
                             "difference")
    args = parser.parse_args()
    lines = digests(args.sim)
    if not args.check:
        print("\n".join(lines))
        return 0
    with open(args.check) as f:
        expected = [line.rstrip("\n") for line in f if line.strip()]
    if lines == expected:
        print(f"{len(lines)} digests match {args.check}")
        return 0
    for want, got in zip(expected, lines):
        if want != got:
            print(f"expected {want}\n     got {got}")
    if len(expected) != len(lines):
        print(f"expected {len(expected)} digests, got {len(lines)}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
