"""Time-to-verdict benchmark for the `nctoric` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It writes the workload's
seeded inputs to a scratch directory under `.perfbench/`, then runs passes
over the workload's command sequence until `--seconds` have elapsed (at
least one pass). Each command is a fresh `python3 -m nctoric.cli` process
with `src/` on the path, and each reads what the previous one wrote: a
closed loop with one client. Every verdict is compared with its known
answer; a mismatch counts as a failed operation.

Times are wall seconds scaled to the host's speed (see REFERENCE_S).
With `--trace 0` the last line of output carries the end-to-end metrics,
medians over the passes. With `--trace 1` it carries the per-layer metrics:
passes alternate between plain commands and commands run under
`tracer.py`, and the tracing overhead is the difference in pass wall time.
The spans of the last traced pass are kept in `.perfbench/trace-<workload>.json`.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
TRACER = os.path.join(HERE, "tracer.py")
RUN_LIMIT_S = 150        # no command may run past this point of a run
SETUP_PROBES = 3         # before every pass
# The speed of a shared host drifts by a quarter within seconds, for the
# CPU time of a process as much as for its wall time. Every command's wall
# time is therefore scaled by REFERENCE_S / r, where r is the mean time of a
# fixed pure-Python loop timed on the same CPU just before and just after
# the command. REFERENCE_S is that loop's typical time on the 2-CPU machine
# the benchmark was tuned on, so scaled seconds read close to wall seconds.
REFERENCE_LOOP = 200_000
REFERENCE_S = 0.015
LAYERS = ("exactmath", "toricfan", "freeword", "deltasystem", "ncalgebra",
          "sheaves", "azumaya", "serialize", "cli")

END_TO_END = {           # name -> unit
    "wall_s": "s", "build_s": "s", "query_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB", "ok_share": "ratio",
}

# (metric prefix, traced functions summed, fields reported)
FUNCTION_METRICS = [
    ("freeword.compile", ["freeword.compile_submonoid"], ("calls", "self_s")),
    ("freeword.member", ["freeword.Submonoid.member"], ("calls", "self_s")),
    ("serialize.replay", ["serialize.system_from_obj"], ("calls", "busy_s")),
    ("deltasystem.augment", ["deltasystem.augment_system"], ("calls", "busy_s")),
    ("deltasystem.check_admissible", ["deltasystem.check_admissible"], ("busy_s",)),
    ("exactmath.qim_mul", ["exactmath.qim_mul"], ("calls", "self_s")),
    ("exactmath.corner_inverse", ["exactmath.solve_corner_inverse"], ("calls", "self_s")),
    ("exactmath.elim", ["exactmath.qim_rank", "exactmath.qi_solve", "exactmath.qi_nullspace",
                        "exactmath.minimal_polynomial"], ("self_s",)),
    ("exactmath.fm", ["exactmath.fm_eliminate"], ("calls", "self_s")),
    ("toricfan.comm_monoid", ["toricfan.comm_monoid_member"], ("calls", "busy_s")),
    ("ncalgebra.ideal_member", ["ncalgebra.bounded_ideal_member"], ("calls", "self_s")),
    ("azumaya.surrogate", ["azumaya.surrogate_basis"], ("self_s",)),
    ("azumaya.verify", ["azumaya.verify_morphism"], ("calls", "busy_s")),
    ("azumaya.relations", ["azumaya.check_relations"], ("busy_s",)),
    ("azumaya.sample", ["azumaya.sample_matrix_model"], ("busy_s",)),
    ("sheaves.extend", ["sheaves.extend_section"], ("busy_s",)),
    ("sheaves.check_section", ["sheaves.check_twisted_section"], ("busy_s",)),
    ("sheaves.from_divisor", ["sheaves.sheaf_from_divisor"], ("busy_s",)),
]
FIELD = {"calls": (0, "count"), "busy_s": (1, "s"), "self_s": (2, "s")}

# counters written by tracer.py -> unit; `max_` counters take the maximum
# over commands, the others are summed
COUNTERS = {
    "freeword.compile.generators": "count", "freeword.compile.states": "count",
    "serialize.replay.stages": "count", "serialize.bytes_read": "bytes",
    "serialize.bytes_written": "bytes", "deltasystem.max_chart_generators": "count",
    "exactmath.max_entry_bits": "bits", "exactmath.fm.constraints": "count",
    "toricfan.functional_solves": "count", "ncalgebra.ideal_member.cert_terms": "count",
}


def per_layer_units():
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.busy_s": "s", f"{layer}.self_s": "s", f"{layer}.lines": "lines"})
    for prefix, _, fields in FUNCTION_METRICS:
        units.update({f"{prefix}.{f}": FIELD[f][1] for f in fields})
    units.update(COUNTERS)
    units.update({"freeword.compile.distinct_ratio": "ratio", "cli.import_s": "s",
                  "trace.overhead_s": "s", "trace.overhead_share": "ratio",
                  "host.unscaled_wall_s": "s", "host.reference_s": "s"})
    return units


def reference_s():
    """Time of the fixed reference loop, in seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP):
        acc += i * i % 7
    return time.perf_counter() - t0


class Runner:
    """Runs the commands of one pass, one process at a time, and records
    their scaled wall times, peak memory and verdicts."""

    def __init__(self, workdir, env, deadline, trace_dir=None):
        self.workdir, self.env, self.deadline = workdir, env, deadline
        self.trace_dir = trace_dir
        self.attempted = self.failed = 0
        self.timings = []            # (writes an artifact, scaled seconds) per command
        self.raw_s = 0.0
        self.references = []
        self.peak_rss_kb = 0
        self.traces = []

    def read(self, name):
        with open(os.path.join(self.workdir, name)) as fh:
            return json.load(fh)

    def cmd(self, argv, check, code=0):
        """Run one command with --json; return its payload when the exit
        code and verdict match the known answer, else None."""
        self.attempted += 1
        argv = [*argv, "--json"]
        if self.trace_dir is None:
            prog = [sys.executable, "-m", "nctoric.cli", *argv]
        else:
            trace_file = os.path.join(self.trace_dir, f"cmd{len(self.traces):03d}.json")
            prog = [sys.executable, TRACER, trace_file, "--", *argv]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return self._fail(argv, "not started: the run's time limit was reached")
        out_path = os.path.join(self.workdir, "stdout.txt")
        err_path = os.path.join(self.workdir, "stderr.txt")
        ref = reference_s()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(prog, cwd=self.workdir, env=self.env, stdout=out, stderr=err)
            watchdog = threading.Timer(remaining, proc.kill)
            watchdog.start()
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - t0
            watchdog.cancel()
        ref = (ref + reference_s()) / 2
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.timings.append(("--out" in argv, elapsed * REFERENCE_S / ref))
        self.raw_s += elapsed
        self.references.append(ref)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if self.trace_dir is not None and os.path.exists(trace_file):
            with open(trace_file) as fh:
                self.traces.append({"argv": argv, **json.load(fh)})
        if proc.returncode != code:
            with open(err_path, errors="replace") as fh:
                tail = fh.read().strip().splitlines()[-1:]
            return self._fail(argv, f"exit code {proc.returncode}, expected {code} {tail}")
        try:
            with open(out_path) as fh:
                payload = json.load(fh)
            problem = check(payload)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError,
                ZeroDivisionError) as exc:
            problem = f"unreadable payload: {exc!r}"
        if problem:
            return self._fail(argv, problem)
        return payload

    def _fail(self, argv, problem):
        self.failed += 1
        print(f"verdict mismatch: nctoric {' '.join(argv)}: {problem}", file=sys.stderr)
        return None


def pass_times(passes):
    """(wall, build, query) seconds of a pass in which every command takes
    its median time over the given passes of the same command sequence."""
    typical = [(cols[0][0], statistics.median(t for _, t in cols)) for cols in zip(*passes)]
    build = sum(t for writes, t in typical if writes)
    query = sum(t for writes, t in typical if not writes)
    return build + query, build, query


def aggregate(traces):
    """Per-layer metrics of one traced pass, summed over its commands."""
    layers, functions, counters = {}, {}, {}
    for t in traces:
        for key, vals in t["layers"].items():
            layers[key] = [a + b for a, b in zip(layers.get(key, [0, 0]), vals)]
        for key, vals in t["functions"].items():
            functions[key] = [a + b for a, b in zip(functions.get(key, [0, 0, 0]), vals)]
        for key, val in t["counters"].items():
            merge = max if ".max_" in key else (lambda a, b: a + b)
            counters[key] = merge(counters.get(key, 0), val)
    out = {}
    for layer in LAYERS:
        busy, own = layers.get(layer, [0.0, 0.0])
        out[f"{layer}.busy_s"], out[f"{layer}.self_s"] = busy, own
        with open(os.path.join(SRC, "nctoric", f"{layer}.py")) as fh:
            out[f"{layer}.lines"] = sum(1 for _ in fh)
    for prefix, names, fields in FUNCTION_METRICS:
        for f in fields:
            i = FIELD[f][0]
            out[f"{prefix}.{f}"] = sum(functions.get(n, [0, 0, 0])[i] for n in names)
    for key in COUNTERS:
        out[key] = counters.get(key, 0)
    compiles = out["freeword.compile.calls"]
    out["freeword.compile.distinct_ratio"] = (
        counters.get("freeword.compile.distinct", 0) / compiles if compiles else 1.0)
    out["cli.import_s"] = sum(t["import_s"] for t in traces)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "nctoric", "cli.py")):
        sys.exit(f"error: no nctoric sources under {SRC}; run from a source checkout")

    # commands and the reference loop share one CPU; one runs at a time
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("NCTORIC_THREADS", None)
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        files, script = workloads.WORKLOADS[args.workload](args.seed, tiny=False)
        files["one-cone.fan"] = workloads.ONE_CONE_2
        for name, obj in files.items():
            with open(os.path.join(workdir, name), "w") as fh:
                json.dump(obj, fh)
        result = measure(args, workdir, env, deadline, script)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


def measure(args, workdir, env, deadline, script):
    attempted = failed = 0
    setup, plain, traced, rss, layer_values, raw, refs = [], [], [], [], [], [], []
    last_traces = []
    trace_dir = os.path.join(workdir, "trace")
    t0 = time.perf_counter()
    while not plain or (args.trace and not traced) or time.perf_counter() - t0 < args.seconds:
        tracing = bool(args.trace) and len(traced) < len(plain)
        if not args.trace:
            probe = Runner(workdir, env, deadline)
            for _ in range(SETUP_PROBES):
                probe.cmd(["fan", "check", "one-cone.fan"], workloads.status())
            setup += [t for _, t in probe.timings]
            attempted, failed = attempted + probe.attempted, failed + probe.failed
        if tracing:
            shutil.rmtree(trace_dir, ignore_errors=True)
            os.makedirs(trace_dir)
        runner = Runner(workdir, env, deadline, trace_dir if tracing else None)
        script(runner)
        attempted, failed = attempted + runner.attempted, failed + runner.failed
        if tracing:
            traced.append(runner.timings)
            layer_values.append(aggregate(runner.traces))
            last_traces = runner.traces
        else:
            plain.append(runner.timings)
            rss.append(runner.peak_rss_kb / 1024.0)
            raw.append(runner.raw_s)
            refs += runner.references
        if time.monotonic() > deadline:
            break

    wall, build, query = pass_times(plain)
    if args.trace:
        with open(os.path.join(WORK, f"trace-{args.workload}.json"), "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "commands": [{"id": i, **t} for i, t in enumerate(last_traces)]}, fh)
        units = per_layer_units()
        values = {name: statistics.median(v[name] for v in layer_values)
                  for name in units if not name.startswith(("trace.", "host."))}
        values["trace.overhead_s"] = pass_times(traced)[0] - wall
        values["trace.overhead_share"] = values["trace.overhead_s"] / wall
        values["host.unscaled_wall_s"] = statistics.median(raw)
        values["host.reference_s"] = statistics.median(refs)
    else:
        units = END_TO_END
        values = {"wall_s": wall, "build_s": build, "query_s": query,
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": statistics.median(rss),
                  "ok_share": (attempted - failed) / attempted}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


if __name__ == "__main__":
    main()
