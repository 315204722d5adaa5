"""Benchmark of the sivjp command-line program.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, end-to-end metrics and per-layer metrics are listed in
``BENCHMARK.json``; the commands and correctness gates of each workload are
in ``workloads.py``. The program runs from ``src/`` as users run it,
``python3 -m sivjp``, one process per command, with configs generated from
the shipped ``configs/``.

``--trace 0`` measures end to end. It repeats the workload's commands (a
"pass") until S seconds are spent, at least twice, and reports medians
over passes. Every pass must produce the same output bytes as the first
(runs share the seed). ``setup_s`` is timed in fresh processes before each
pass and after the last.

Times are reported at the host's unloaded speed. On a shared host the
speed of each CPU swings by up to 2x over seconds to minutes, as other
tenants load it, which no number of repeats within one run averages out.
So every child runs pinned (a single-process command to the first CPU,
``--threads 2`` to the first two), a speed probe (``speed_probe.py``) runs
on each of those CPUs, and each child's wall time is divided by the
probes' mean slowdown over the child's lifetime: the probe's loop cost
over ``REFERENCE_S``, its cost at full speed. The raw wall times are
printed too, as ``*.raw`` lines, with the median slowdown.

``--trace 1`` measures per layer. It runs one untraced pass at
``--threads 1`` (the overhead reference), for multi-thread workloads one
at the workload's thread count too, and one traced pass with
``traced.py``. The outputs of all three must be byte-identical. Layer
shares are self times of the spans over the traced wall time.

Every run checks its outputs against the gates in ``workloads.py`` and
prints human-readable lines (environment, every metric with unit and
sample count, failed gates) and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

from speed_probe import REFERENCE_S
from workloads import WORKLOADS, Command, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SHIPPED = ("pitchfork_scan", "localize_two_well", "flow_demo")
SETUP_PER_PASS = 2  # set-up probes before each pass and after the last
LAYERS = ("engine", "geometry", "potentials", "equilibria", "flow", "harness", "cli")


class HostSpeed:
    """Speed probes on the CPUs the children are pinned to."""

    def __init__(self, work: str, cpus: list[int], env: dict):
        self.cpus = cpus
        self.paths = {c: os.path.join(work, f"speed_{c}.txt") for c in cpus}
        self.procs = [subprocess.Popen([sys.executable, os.path.join(HERE, "speed_probe.py"),
                                        str(c), self.paths[c]], env=env,
                                       stdin=subprocess.DEVNULL)
                      for c in cpus]
        time.sleep(0.2)  # let the probes take their first samples
        self.samples: dict[int, tuple[list, list]] = {}
        self.mean_cost: float | None = None

    def stop(self) -> None:
        if self.samples:
            return
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self.procs:
            proc.wait(timeout=60)
        for c, path in self.paths.items():
            times, costs = [], []
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    for line in fh:
                        t, d = line.split()
                        times.append(float(t))
                        costs.append(float(d))
            self.samples[c] = (times, costs)
        pooled = [d for _, costs in self.samples.values() for d in costs]
        self.mean_cost = statistics.fmean(pooled) if pooled else None

    def slowdown(self, t0: float, t1: float, cpus: list[int]) -> float:
        """Mean probe cost over [t0, t1] on cpus, over the full-speed cost."""
        if self.mean_cost is None:
            raise RuntimeError("the speed probes recorded no samples")
        costs = []
        for c in cpus:
            times, values = self.samples[c]
            costs += values[bisect.bisect_left(times, t0):bisect.bisect_right(times, t1)]
        return (statistics.fmean(costs) if costs else self.mean_cost) / REFERENCE_S


class Run:
    """One benchmark run: work directory, child processes and tallies."""

    def __init__(self, workload: Workload, seed: int, tiny: bool, work: str):
        self.workload = workload
        self.seed = seed
        self.work = work
        configs = {}
        for name in SHIPPED:
            with open(os.path.join(ROOT, "configs", f"{name}.json"), encoding="utf-8") as fh:
                configs[name] = json.load(fh)
        self.commands = workload.commands(configs, seed, tiny)
        self.config_paths = {}
        os.makedirs(os.path.join(work, "configs"))
        for k, cmd in enumerate(self.commands):
            path = os.path.join(work, "configs", f"{k:02d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cmd.config, fh)
            self.config_paths[cmd.label] = path
        env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env
        self.log = os.path.join(work, "child.log")
        self.attempted = 0
        self.failures: list[str] = []
        self.n_passes = 0
        self.cpus = sorted(os.sched_getaffinity(0))[:workload.threads]
        self.speed = HostSpeed(work, self.cpus, env)

    # child processes -------------------------------------------------------

    def spawn(self, argv: list[str], threads: int = 1) -> dict:
        """Run a child pinned to `threads` CPUs; its interval, exit code and RSS."""
        cpus = self.cpus[:threads]
        with open(self.log, "ab") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.work, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=log, stderr=log,
                                    start_new_session=True,
                                    preexec_fn=lambda: os.sched_setaffinity(0, cpus))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # also stop the child's pool workers, then re-raise
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
            t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"t0": t0, "t1": t1, "cpus": cpus, "code": proc.returncode,
                "rss_mb": usage.ru_maxrss / 1024.0}

    def wall(self, child: dict, minus: float = 0.0) -> float:
        """Wall time of a child at the host's unloaded speed (after stop)."""
        raw = child["t1"] - child["t0"] - minus
        return raw / self.speed.slowdown(child["t0"], child["t1"], child["cpus"])

    def cli_argv(self, cmd: Command, out: str, threads: str | None = None) -> list[str]:
        args = list(cmd.args)
        if threads is not None and "--threads" in args:
            args[args.index("--threads") + 1] = threads
        return ["--config", self.config_paths[cmd.label], "--seed", str(self.seed),
                "--out", out, "--quiet", *args]

    def tally(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return ok

    def run_pass(self, tag: str, threads: str | None = None) -> dict:
        """All commands of the workload once, untraced."""
        outs, children = {}, {}
        for cmd in self.commands:
            out = os.path.join(self.work, tag, cmd.out)
            argv = self.cli_argv(cmd, out, threads)
            n = int(argv[argv.index("--threads") + 1]) if "--threads" in argv else 1
            child = self.spawn(["-m", "sivjp", *argv], threads=n)
            self.tally(f"{tag}:{cmd.label}:exit", child["code"] == 0,
                       f"exit code {child['code']}")
            outs[cmd.label], children[cmd.label] = out, child
        return {"outs": outs, "children": children,
                "raw": sum(c["t1"] - c["t0"] for c in children.values())}

    def pass_wall(self, p: dict) -> float:
        return sum(self.wall(c) for c in p["children"].values())

    def run_traced(self, tag: str) -> dict:
        outs, children = {}, []
        for k, cmd in enumerate(self.commands):
            out = os.path.join(self.work, tag, cmd.out)
            spans = os.path.join(self.work, f"spans_{k:02d}.json")
            t_spawn = time.perf_counter()
            child = self.spawn([os.path.join(HERE, "traced.py"), spans, repr(t_spawn), "--",
                                *self.cli_argv(cmd, out)])
            if not self.tally(f"{tag}:{cmd.label}:exit", child["code"] == 0,
                              f"exit code {child['code']}"):
                raise RuntimeError(f"traced run of {cmd.label!r} failed; see {self.log}")
            with open(spans, encoding="utf-8") as fh:
                child.update(json.load(fh))
            children.append(child)
            outs[cmd.label] = out
        return {"outs": outs, "children": children}

    def measure_setup(self) -> list[dict]:
        """import sivjp.cli plus config load and schema check, fresh processes."""
        out = os.path.join(self.work, "setup_s.txt")
        children = []
        for _ in range(SETUP_PER_PASS):
            child = self.spawn([os.path.join(HERE, "setup_probe.py"),
                                self.config_paths[self.commands[0].label], out])
            if not self.tally("setup_probe:exit", child["code"] == 0,
                              f"exit code {child['code']}"):
                raise RuntimeError(f"set-up probe failed; see {self.log}")
            with open(out, encoding="utf-8") as fh:
                child["setup_s"] = float(fh.read())
            children.append(child)
        return children

    # checks ----------------------------------------------------------------

    def check_outputs(self, tag: str, outs: dict) -> None:
        for name, ok, detail in self.workload.check(self.commands, outs):
            self.tally(f"{tag}:{name}", ok, detail)

    def check_same(self, what: str, outs_a: dict, outs_b: dict) -> None:
        """Byte-identical output trees, ignoring wall_time_s in JSON."""
        for label in outs_a:
            a, b = outs_a[label], outs_b[label]
            files = sorted(os.listdir(a))
            same = files == sorted(os.listdir(b)) and all(
                _normalized(os.path.join(a, f)) == _normalized(os.path.join(b, f))
                for f in files)
            self.tally(f"determinism:{what}:{label}", same, "outputs differ")


def _normalized(path: str) -> bytes:
    with open(path, "rb") as fh:
        data = fh.read()
    if not path.endswith(".json"):
        return data

    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items() if k != "wall_time_s"}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj
    return json.dumps(strip(json.loads(data)), sort_keys=True).encode()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# end to end ----------------------------------------------------------------

def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    t_start = time.perf_counter()
    passes, setups = [], []
    while True:
        setups += run.measure_setup()
        p = run.run_pass(f"pass{len(passes)}")
        passes.append(p)
        if len(passes) == 1:
            run.check_outputs("pass0", p["outs"])
        else:
            run.check_same(f"repeat{len(passes) - 1}", passes[0]["outs"], p["outs"])
            shutil.rmtree(os.path.join(run.work, f"pass{len(passes) - 1}"))
        spent = time.perf_counter() - t_start
        if len(passes) >= 2 and spent + statistics.median(q["raw"] for q in passes) > seconds:
            break
    setups += run.measure_setup()
    run.speed.stop()
    run.n_passes = len(passes)

    walls = [run.pass_wall(p) for p in passes]
    raw = [p["raw"] for p in passes]
    setup = [c["setup_s"] / run.speed.slowdown(c["t0"], c["t1"], c["cpus"]) for c in setups]
    metrics = {"wall_s": statistics.median(walls),
               "setup_s": statistics.median(setup),
               "peak_rss_mb": statistics.median(max(c["rss_mb"] for c in p["children"].values())
                                                for p in passes)}
    extra = {"wall_s.max": (max(walls), "s", len(walls)),
             "wall_s.raw": (statistics.median(raw), "s", len(raw)),
             "setup_s.max": (max(setup), "s", len(setup)),
             "setup_s.raw": (statistics.median(c["setup_s"] for c in setups), "s", len(setups)),
             "host_slowdown": (statistics.median(r / w for r, w in zip(raw, walls)), "ratio",
                               len(walls))}
    n_runs = run.workload.seed_runs(run.commands)
    if n_runs:
        extra["runs_per_s"] = (n_runs * len(passes) / sum(walls), "1/s", len(passes))
    for name, prefix in (("census_s", "fixed-points"), ("flow_s", "flow")):
        times = [run.wall(c) for p in passes for label, c in p["children"].items()
                 if label.startswith(prefix)]
        if times:
            extra[name] = (statistics.median(times), "s", len(times))
    samples = {"wall_s": len(walls), "setup_s": len(setup), "peak_rss_mb": len(passes)}
    return metrics, {"extra": extra, "samples": samples}


# per layer -------------------------------------------------------------------

def per_layer(run: Run) -> tuple[dict, dict]:
    ref = run.run_pass("untraced_t1", threads="1")
    run.check_outputs("untraced_t1", ref["outs"])
    if run.workload.threads > 1:
        multi = run.run_pass(f"untraced_t{run.workload.threads}")
        run.check_same(f"threads1_vs_{run.workload.threads}", ref["outs"], multi["outs"])
    traced = run.run_traced("traced")
    run.check_outputs("traced", traced["outs"])
    run.check_same("traced_vs_untraced", ref["outs"], traced["outs"])
    run.speed.stop()
    run.n_passes = 1
    for child in traced["children"]:
        child["wall_raw"] = child["t1"] - child["t0"] - child["micro_s"]
        child["wall_s"] = run.wall(child, minus=child["micro_s"])
    return layer_metrics(traced["children"], run.pass_wall(ref))


def layer_metrics(children: list[dict], untraced_wall: float) -> tuple[dict, dict]:
    spans = []
    for child in children:
        base = len(spans)
        for name, layer, start, end, parent, attrs in child["spans"]:
            spans.append({"name": name, "layer": layer, "dur": end - start,
                          "parent": parent + base if parent >= 0 else -1,
                          "attrs": attrs or {}, "child_s": 0.0})
    for s in spans:  # a span is recorded when it opens, so parents come first
        p = s["parent"]
        s["in_census"] = p >= 0 and (spans[p]["in_census"]
                                     or spans[p]["name"] == "find_fixed_points")
        if p >= 0:
            spans[p]["child_s"] += s["dur"]
    for s in spans:
        s["self"] = s["dur"] - s["child_s"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def mean_dur(items, scale):
        return scale * sum(s["dur"] for s in items) / len(items) if items else 0.0

    wall = sum(c["wall_s"] for c in children)
    raw_wall = sum(c["wall_raw"] for c in children)  # the spans' time base
    import_s = [c["import_s"] for c in children]
    runs = named("run_sitp")
    proposals = sum(s["attrs"]["proposals"] for s in runs)
    events = sum(s["attrs"]["events"] for s in runs)
    run_durs = [s["dur"] for s in runs]
    micro = [c["micro"] for c in children]
    dv_ns = max(m["dv_ns_per_call"] for m in micro)
    hist_events = sum(m["hist_events"] for m in micro)
    hist_extra = sum(m["hist_s_with"] - m["hist_s_without"] for m in micro)
    arcs = named("arc_sojourn")
    fbars = named("fbar")
    jacs = named("jacobian_fbar")
    censuses = named("find_fixed_points")
    flows = named("integrate_flow")
    steps = sum(s["attrs"]["steps"] for s in flows)
    flow_s = sum(s["dur"] for s in flows)
    from_dict = named("ExperimentConfig.from_dict")
    classify = named("classify_limit")
    ipc = [b for c in children for b in c["ipc_bytes"]]

    layer_s = {layer: sum(s["self"] for s in spans if s["layer"] == layer) for layer in LAYERS}
    layer_s["potentials"] = proposals * dv_ns * 1e-9
    layer_s["engine"] -= layer_s["potentials"]
    layer_s["cli"] += sum(c["start_s"] + c["import_s"] for c in children)

    m = {
        "engine.runs": len(runs),
        "engine.proposals": proposals,
        "engine.events": events,
        "engine.acceptance_ratio": events / proposals if proposals else 0.0,
        "engine.ns_per_proposal":
            1e9 * sum(s["self"] for s in runs) / proposals if proposals else 0.0,
        "engine.run_s.p50": statistics.median(run_durs) if runs else 0.0,
        "engine.run_s.p90": percentile(run_durs, 90) if runs else 0.0,
        "engine.hist_us_per_event": 1e6 * hist_extra / hist_events if hist_events else 0.0,
        "engine.self_s": layer_s["engine"],
        "geometry.arc_sojourn.calls": len(arcs),
        "geometry.arc_sojourn.us_per_call": mean_dur(arcs, 1e6),
        "geometry.self_s": layer_s["geometry"],
        "potentials.dv_scalar.ns_per_call": dv_ns,
        "potentials.self_s": layer_s["potentials"],
        "equilibria.fbar.calls": len(fbars),
        "equilibria.fbar.us_per_call": mean_dur([s for s in fbars if s["attrs"]["n"] == 512], 1e6),
        "equilibria.jacobian_fbar.us_per_call":
            mean_dur([s for s in jacs if s["attrs"]["n"] == 512], 1e6),
        "equilibria.find_fixed_points.s":
            statistics.median(s["dur"] for s in censuses) if censuses else 0.0,
        "equilibria.fbar.calls_per_census":
            sum(s["in_census"] for s in fbars) / len(censuses) if censuses else 0.0,
        "equilibria.census.records": sum(s["attrs"]["records"] for s in censuses),
        "equilibria.self_s": layer_s["equilibria"],
        "flow.integrate_flow.s": flow_s,
        "flow.steps": steps,
        "flow.us_per_step": 1e6 * flow_s / steps if steps else 0.0,
        "flow.self_s": layer_s["flow"],
        "harness.config_from_dict.ms": mean_dur(from_dict, 1e3),
        "harness.config_validations": len(from_dict) / len(children),
        "harness.pools_started": sum(c["pools"] for c in children),
        "harness.ipc_bytes_per_run": sum(ipc) / len(ipc) if ipc else 0.0,
        "harness.classify_limit.ms_per_run": mean_dur(classify, 1e3),
        "harness.self_s": layer_s["harness"],
        "cli.import_s": statistics.median(import_s),
        "cli.self_s": layer_s["cli"],
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.spans": len(spans),
        "trace_overhead_ratio": wall / untraced_wall,
    }
    for layer in LAYERS:
        m[f"share.{layer}"] = layer_s[layer] / raw_wall
    m["share.unattributed"] = 1.0 - sum(layer_s.values()) / raw_wall
    samples = {"engine.run_s.p50": len(runs), "engine.run_s.p90": len(runs),
               "geometry.arc_sojourn.us_per_call": len(arcs),
               "equilibria.fbar.us_per_call": sum(s["attrs"]["n"] == 512 for s in fbars),
               "equilibria.jacobian_fbar.us_per_call": sum(s["attrs"]["n"] == 512 for s in jacs),
               "equilibria.find_fixed_points.s": len(censuses),
               "harness.config_from_dict.ms": len(from_dict),
               "harness.classify_limit.ms_per_run": len(classify),
               "cli.import_s": len(import_s)}
    return m, {"extra": {}, "samples": samples}


# entry point -----------------------------------------------------------------

def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {"cpu_model": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "git_commit": commit}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to a few seconds (smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    missing = [p for p in ("BENCHMARK.json", "src/sivjp/cli.py",
                           *(f"configs/{n}.json" for n in SHIPPED))
               if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: not a sivjp source tree, missing {missing}", file=sys.stderr)
        return 2
    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # SIGTERM unwinds like an exception, so children and probes get stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work = os.path.join(ROOT, ".perfbench_work",
                        f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    run = None
    try:
        run = Run(WORKLOADS[args.workload], args.seed, args.tiny, work)
        if args.trace:
            values, info = per_layer(run)
        else:
            values, info = end_to_end(run, args.seconds)
    finally:
        if run is not None:
            run.speed.stop()
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    failed = len(run.failures)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{run.n_passes} pass(es), {len(run.commands)} command(s) per pass")
    print("env " + json.dumps(environment(), sort_keys=True))
    for m in wanted:
        n = info["samples"].get(m["name"])
        print(f"metric {m['name']} = {values[m['name']]:.6g} {m['unit']}"
              + (f" (n={n})" if n else ""))
    for name, (value, unit, n) in info["extra"].items():
        print(f"metric {name} = {value:.6g} {unit} (n={n})")
    print(f"metric failed_ratio = {failed / run.attempted:.6g} ratio "
          f"({failed} of {run.attempted} commands, rows and checks)")
    for line in run.failures:
        print(f"FAILED {line}")
    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed,
              "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                          for m in wanted}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
