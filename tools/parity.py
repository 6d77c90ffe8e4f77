#!/usr/bin/env python3
"""Digest a build's deterministic outputs, to show two builds bit-identical.

    python3 tools/parity.py run BUILD OUT
    python3 tools/parity.py diff A B

`run` drives one fixed manifest against the CMake build directory BUILD and
writes OUT, one "<entry> <sha256>" line per output, sorted by entry:

  - fig1-fig6 and table1 stdout; table2_scenario1 and table3_scenario2 at
    --seconds 20;
  - stdout, trace and metrics of three scenario-1 e2efa-sim runs (SIM_SAMPLES:
    2pa-c with metrics; 2pa-dctrl traced with ctrl,lp,flow and metrics;
    2pa-dctrl with loss, churn and --profile), and the trace-tool summary,
    convergence --window 2, chrome and follow --limit 200 outputs on each
    of their traces;
  - `fuzz --repro` on every tests/repros/*.scn;
  - `e2efa_perf --record-golden` for paper_s2, cold_start and churn_ctrl at
    seeds 0-31 and 7919, built the way perfbench/run.py builds it (in
    BUILD/perfbench).

A command's digest covers its stdout and exit status. Wall-clock outputs
(the --profile JSON, stderr) are left out. Every command runs in a temporary
directory with relative paths, so the digests do not depend on where the
checkout or the build lives. The sources (repro files, perfbench) are taken
from the tree BUILD was configured from.

`diff` lists the entries whose digests differ between two digest files, or
that only one of them has, and exits 1 when there is any.
"""
import argparse
import glob
import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

FIGURES = ("fig1_motivating_example", "fig2_fairness_definitions",
           "fig3_virtual_length", "fig4_weighted_allocation",
           "fig5_pentagon_bound", "fig6_first_phase",
           "table1_distributed_local_lp")
TABLES = ("table2_scenario1", "table3_scenario2")
# e2efa-sim runs: name and flags. Every TRACE_TOOL command runs on each trace.
SIM_SAMPLES = (
    ("sample", ["--scenario", "1", "--protocol", "2pa-c", "--seconds", "30",
                "--metrics-out", "sample.metrics", "--metrics-period", "1"]),
    ("inband", ["--scenario", "1", "--protocol", "2pa-dctrl", "--seconds", "30",
                "--trace-filter", "ctrl,lp,flow",
                "--metrics-out", "inband.metrics", "--metrics-period", "1"]),
    ("causal", ["--scenario", "1", "--protocol", "2pa-dctrl", "--seconds", "8",
                "--loss", "0.25", "--churn", "0.5:100",
                "--profile", "causal.profile.json"]),
)
TRACE_TOOL = (("summary", []), ("convergence", ["--window", "2"]),
              ("chrome", []), ("follow", ["--limit", "200"]))
PERF_WORKLOADS = ("paper_s2", "cold_start", "churn_ctrl")
PERF_SEEDS = tuple(range(32)) + (7919,)


def fail(msg):
    print("parity.py: " + msg, file=sys.stderr)
    sys.exit(2)


def sha256_file(path):
    """sha256 of a file's bytes; "missing" when the command wrote none."""
    if not os.path.isfile(path):
        return "missing"
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_digest(cmd, cwd):
    """sha256 over a command's stdout and exit status."""
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL)
    h = hashlib.sha256(proc.stdout)
    h.update(b"\nexit %d\n" % proc.returncode)
    return h.hexdigest()


def source_dir(build):
    cache = os.path.join(build, "CMakeCache.txt")
    if not os.path.isfile(cache):
        fail("%s is not a configured CMake build directory" % build)
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                return line.split("=", 1)[1].strip()
    fail("no CMAKE_HOME_DIRECTORY in " + cache)


def build_perf(src, build):
    """e2efa_perf, built by the source tree's own perfbench/run.py."""
    sys.dont_write_bytecode = True  # leave no cache in the source tree
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(src, "perfbench", "run.py"))
    run_py = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_py)
    return run_py.build(os.path.join(build, "perfbench"))


def cmd_run(args):
    build = os.path.abspath(args.build)
    src = source_dir(build)
    exe = {name: os.path.join(build, "tools", name)
           for name in ("e2efa-sim", "trace-tool", "fuzz")}
    exe.update((b, os.path.join(build, "bench", b)) for b in FIGURES + TABLES)
    for path in exe.values():
        if not os.access(path, os.X_OK):
            fail("missing executable " + path)
    exe["e2efa_perf"] = build_perf(src, build)
    repros = sorted(glob.glob(os.path.join(src, "tests", "repros", "*.scn")))
    with tempfile.TemporaryDirectory(prefix="parity-") as work:
        os.makedirs(os.path.join(work, "repros"))
        for path in repros:
            shutil.copy(path, os.path.join(work, "repros"))
        rows = digest_all(exe, [os.path.basename(p) for p in repros], work)
    with open(args.out, "w") as f:
        for entry, digest in sorted(rows):
            f.write("%s %s\n" % (entry, digest))
    print("parity.py: %d entries -> %s" % (len(rows), args.out))


def digest_all(exe, repros, work):
    """(entry, sha256) for the whole manifest, run in `work`."""
    # Independent jobs: (entry, argv).
    jobs = [("bench/%s stdout" % b, [exe[b]]) for b in FIGURES]
    jobs += [("bench/%s --seconds 20 stdout" % b, [exe[b], "--seconds", "20"])
             for b in TABLES]
    jobs += [("fuzz --repro repros/%s stdout" % r,
              [exe["fuzz"], "--repro", "repros/" + r]) for r in repros]
    jobs += [("perf %s seed %d --record-golden" % (w, s),
              [exe["e2efa_perf"], "--workload", w, "--seed", str(s),
               "--record-golden"])
             for w in PERF_WORKLOADS for s in PERF_SEEDS]

    def sample(name, flags):
        """One sample command, then the trace-tool outputs on its trace."""
        trace = name + ".trace"
        rows = [("sim/%s stdout" % name,
                 run_digest([exe["e2efa-sim"]] + flags + ["--trace", trace],
                            work))]
        rows.append(("sim/%s trace" % name,
                     sha256_file(os.path.join(work, trace))))
        if "--metrics-out" in flags:
            metrics = flags[flags.index("--metrics-out") + 1]
            rows.append(("sim/%s metrics" % name,
                         sha256_file(os.path.join(work, metrics))))
        for command, extra in TRACE_TOOL:
            rows.append(("sim/%s trace-tool %s" % (name, command),
                         run_digest([exe["trace-tool"], command, trace] + extra,
                                    work)))
        return rows

    # Every digest is independent of the order, so only wall time depends
    # on the pool size (perfbench/run.py's build uses the same one).
    with ThreadPoolExecutor(max_workers=max(1, min(4, os.cpu_count() or 1))) as pool:
        futures = [pool.submit(lambda e=e, c=c: [(e, run_digest(c, work))])
                   for e, c in jobs]
        futures += [pool.submit(sample, n, f) for n, f in SIM_SAMPLES]
        return [row for fut in futures for row in fut.result()]


def read_digests(path):
    with open(path) as f:
        return dict(line.rstrip("\n").rsplit(" ", 1) for line in f if line.strip())


def cmd_diff(args):
    a, b = read_digests(args.a), read_digests(args.b)
    differ = 0
    for entry in sorted(set(a) | set(b)):
        if entry not in b:
            print("only in %s: %s" % (args.a, entry))
        elif entry not in a:
            print("only in %s: %s" % (args.b, entry))
        elif a[entry] != b[entry]:
            print("differs: " + entry)
        else:
            continue
        differ += 1
    print("%d of %d entries differ" % (differ, len(set(a) | set(b))))
    return 1 if differ else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="digest BUILD's outputs into OUT")
    run.add_argument("build")
    run.add_argument("out")
    diff = sub.add_parser("diff", help="list the entries that differ")
    diff.add_argument("a")
    diff.add_argument("b")
    args = ap.parse_args()
    if args.command == "run":
        cmd_run(args)
        return 0
    return cmd_diff(args)


if __name__ == "__main__":
    sys.exit(main())
