"""Traced run of one sivjp CLI command, for the per-layer metrics.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/traced.py SPANS.json T_SPAWN -- <sivjp argv...>

The script imports ``sivjp.cli``, wraps the calls into each module's public
functions with span recorders, runs ``sivjp.cli.main(argv)`` in this
process and writes the spans to SPANS.json when the command returns.
T_SPAWN is the parent's ``time.perf_counter()`` just before it started
this process (the clock is system-wide); span times are relative to it.
The parent takes the traced wall time as the process lifetime minus
``micro_s``, so it covers interpreter start-up (``start_s``), writing the
spans and interpreter exit, as an untraced CLI run's wall time does.

A span is ``[name, layer, start, end, parent, attrs]`` with times relative
to T_SPAWN and ``parent`` the index of the enclosing span (-1 at the top).
Process pools are replaced by an in-process executor that counts the pools
a command starts and pickles every payload and result the way a worker
pool would, so ``--threads N`` takes the same harness path while every
call stays in this process and produces the same output bytes.

After the command, with the wrappers removed, two micro-measurements run
outside the timed wall: ``dv_scalar`` per call on the engine's potential,
and the histogram cost per event from same-seed runs with and without the
histogram grid (only when the command ran the engine with one).
"""

import dataclasses
import json
import pickle
import sys
import time


class Tracer:
    def __init__(self, t0: float):
        self.t0 = t0
        self.spans: list = []
        self.stack: list = []
        self.pools = 0
        self.ipc_bytes: list = []
        self.engine_cfgs: list = []
        self.hist_cfgs: list = []
        self._patched: list = []

    def wrap(self, fn, name: str, layer: str, attrs=None):
        spans, stack, clock, t0 = self.spans, self.stack, time.perf_counter, self.t0

        def traced(*args, **kwargs):
            rec = [name, layer, clock() - t0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock() - t0
                stack.pop()
            if attrs is not None:
                rec[5] = attrs(args, kwargs, out)
            return out
        return traced

    def patch(self, owner, attr: str, name: str, layer: str, attrs=None,
              static: bool = False) -> None:
        original = owner.__dict__[attr] if static else getattr(owner, attr)
        fn = original.__func__ if static else original
        wrapped = self.wrap(fn, name, layer, attrs)
        setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
        self._patched.append((owner, attr, original))

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def serial_pool(self):
        tracer = self

        class SerialPool:
            """Stands in for ProcessPoolExecutor; runs the map in order."""

            def __init__(self, *args, **kwargs):
                tracer.pools += 1

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                out = []
                for args in zip(*iterables):
                    sent = pickle.dumps(args)
                    back = pickle.dumps(fn(*pickle.loads(sent)))
                    tracer.ipc_bytes.append(len(sent) + len(back))
                    out.append(pickle.loads(back))
                return iter(out)

        return SerialPool


def _grid_n(args, kwargs, default_n: int) -> int:
    grid = args[3] if len(args) > 3 else kwargs.get("grid")
    return grid.n if grid is not None else default_n


def install(tracer: Tracer) -> None:
    from sivjp import cli, engine, equilibria, flow, harness
    from sivjp.geometry import DENSITY_GRID

    def run_attrs(args, kwargs, out):
        cfg = args[0] if args else kwargs["cfg"]
        hist = getattr(cfg, "hist_grid", None)
        if not tracer.engine_cfgs:
            tracer.engine_cfgs.append(cfg)
        if hist is not None and len(tracer.hist_cfgs) < 2:
            tracer.hist_cfgs.append(cfg)
        return {"proposals": out.n_proposals, "events": out.n_events,
                "hist_n": hist.n if hist is not None else 0}

    def grid_attrs(args, kwargs, out):
        return {"n": _grid_n(args, kwargs, DENSITY_GRID.n)}

    for attr in ("cmd_simulate", "cmd_fixed_points", "cmd_flow", "cmd_scan",
                 "cmd_localize", "cmd_validate"):
        if hasattr(cli, attr):
            tracer.patch(cli, attr, attr, "harness")
    tracer.patch(harness.ExperimentConfig, "from_dict", "ExperimentConfig.from_dict",
                 "harness", static=True)
    tracer.patch(harness, "_simulate_worker", "_simulate_worker", "harness")
    tracer.patch(harness, "classify_limit", "classify_limit", "harness")
    tracer.patch(harness, "run_sitp", "run_sitp", "engine", run_attrs)
    tracer.patch(engine, "arc_sojourn", "arc_sojourn", "geometry")
    tracer.patch(equilibria, "find_fixed_points", "find_fixed_points", "equilibria",
                 lambda a, k, out: {"records": len(out)})
    for attr in ("rho_c", "rho_2", "solve_r_of_rho"):
        tracer.patch(equilibria, attr, attr, "equilibria")
    tracer.patch(equilibria, "fbar", "fbar", "equilibria", grid_attrs)
    tracer.patch(flow, "fbar", "fbar", "equilibria", grid_attrs)
    tracer.patch(equilibria, "jacobian_fbar", "jacobian_fbar", "equilibria", grid_attrs)
    tracer.patch(flow, "integrate_flow", "integrate_flow", "flow",
                 lambda a, k, out: {"steps": len(out.times) - 1})
    tracer.patch(cli, "main", "cli.main", "cli")
    tracer._patched.append((harness, "ProcessPoolExecutor", harness.ProcessPoolExecutor))
    harness.ProcessPoolExecutor = tracer.serial_pool()


def micro(tracer: Tracer) -> dict:
    """Per-call costs measured with the wrappers removed."""
    import random
    from sivjp.engine import run_sitp

    out = {"dv_ns_per_call": 0.0, "hist_s_with": 0.0, "hist_s_without": 0.0,
           "hist_events": 0}
    if tracer.engine_cfgs:
        dv = tracer.engine_cfgs[0].model.potential.dv_scalar
        rng = random.Random(0)
        xs = [rng.uniform(0.0, 6.283185307179586) for _ in range(200_000)]
        best = float("inf")
        for _ in range(3):
            t = time.perf_counter()
            for x in xs:
                dv(x)
            best = min(best, time.perf_counter() - t)
        out["dv_ns_per_call"] = best / len(xs) * 1e9
    for cfg in tracer.hist_cfgs:
        t = time.perf_counter()
        with_hist = run_sitp(cfg)
        out["hist_s_with"] += time.perf_counter() - t
        t = time.perf_counter()
        run_sitp(dataclasses.replace(cfg, hist_grid=None))
        out["hist_s_without"] += time.perf_counter() - t
        out["hist_events"] += with_hist.n_events
    return out


def main() -> int:
    spans_path, t_spawn = sys.argv[1], float(sys.argv[2])
    argv = sys.argv[sys.argv.index("--") + 1:]
    t = time.perf_counter()
    start_s = t - t_spawn
    import sivjp.cli
    import_s = time.perf_counter() - t
    tracer = Tracer(t_spawn)
    install(tracer)
    code = sivjp.cli.main(argv)
    tracer.unpatch()
    t = time.perf_counter()
    measured = micro(tracer)
    result = {"exit": code, "start_s": start_s, "import_s": import_s,
              "micro_s": time.perf_counter() - t,
              "spans": tracer.spans, "pools": tracer.pools,
              "ipc_bytes": tracer.ipc_bytes, "micro": measured}
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
