"""In-process runner of the spinqrc command line: work items and layer spans.

Usage: python3 perfbench/tracer.py [--layers] OUT.json SPINQRC-ARGS...

Runs ``spinqrc.cli.main(SPINQRC-ARGS)`` in this process and writes OUT.json.

Work items are always timed: each ``run_cell`` call of ``sweep``, and each
randomized run of ``validate`` (from one ``random_model`` call to the next,
the last one closed when ``run_invariant_suite`` returns); any other
command is one item. The calibration
kernel of ``calib.py`` runs before the first item and after every item,
outside the items' times, so that each item can be divided by the machine's
speed next to it.

With ``--layers`` a timing wrapper also goes around every call into a
layer's public functions. The package imports functions by name, so each
wrapper rebinds the name in the module that calls it
(``spinqrc.reservoir.inject`` is the name ``run_reservoir`` uses). Nothing
inside the package is edited.

Spans are aggregated in memory as (calls, inclusive seconds, self seconds)
per layer name, because a traced sweep makes about 20,000 calls per cell; a
span's self time is its duration minus the time of the wrapped calls it
made. Only in-process work is traced: run the sweeps with ``--threads 1``.
"""

from __future__ import annotations

import json
import sys
import time

from calib import kernel

# (module, attribute, layer name). One layer name can be wrapped in several
# calling modules; a missing attribute is skipped, so the benchmark keeps
# running when a later version of the package stops calling a function there.
PATCHES = (
    ("experiments", "run_cell", "experiments.run_cell"),
    ("cli", "run_cell", "experiments.run_cell"),
    ("experiments", "write_sweep_outputs", "experiments.write_sweep_outputs"),
    ("experiments", "make_input_sequence", "signals.make_input_sequence"),
    ("cli", "make_input_sequence", "signals.make_input_sequence"),
    ("experiments", "run_reservoir", "reservoir.run_reservoir"),
    ("cli", "run_reservoir", "reservoir.run_reservoir"),
    ("experiments", "inject", "reservoir.inject"),
    ("reservoir", "inject", "reservoir.inject"),
    ("experiments", "build_lindblad_system", "dynamics.build_lindblad_system"),
    ("reservoir", "build_lindblad_system", "dynamics.build_lindblad_system"),
    ("experiments", "stable_step_count", "dynamics.stable_step_count"),
    ("reservoir", "stable_step_count", "dynamics.stable_step_count"),
    ("reservoir", "sample_all_partitions", "entanglement.sample_all_partitions"),
    ("experiments", "log_negativity", "entanglement.log_negativity"),
    ("entanglement", "log_negativity", "entanglement.log_negativity"),
    ("entanglement", "trace_norm", "linalg.trace_norm"),
    ("entanglement", "partial_transpose", "linalg.partial_transpose"),
    ("reservoir", "partial_trace", "linalg.partial_trace"),
    ("reservoir", "expectation", "linalg.expectation"),
    ("experiments", "evaluate_capacity_profile", "learning.evaluate_capacity_profile"),
    ("learning", "ridge_fit", "learning.ridge_fit"),
    ("cli", "write_trajectory_csv", "cli.run.write_outputs"),
    ("cli", "write_capacity_csv", "cli.run.write_outputs"),
    ("cli", "write_capacity_json", "cli.run.write_outputs"),
    ("cli", "write_summary_json", "cli.run.write_outputs"),
)


# Per command: the function whose calls start a work item and, for items that
# run into the next one, the function whose return closes the last item. The
# closing function is patched in the module that calls it. Any other command
# (``run``) is one item.
ITEM_MARKS = {
    "sweep": (("experiments", "run_cell"), None),
    "validate": (("experiments", "random_model"), ("cli", "run_invariant_suite")),
}


class Items:
    """Durations of work items and the calibration kernel times around them:
    item i lies between ``calib_s[i]`` and ``calib_s[i + 1]``."""

    def __init__(self):
        self.item_s: list[float] = []
        self.calib_s: list[float] = []
        self.open_at = None

    def start(self):
        now = time.perf_counter()
        if self.open_at is not None:
            self.item_s.append(now - self.open_at)
        if self.open_at is not None or not self.calib_s:
            self.calib_s.append(kernel())
        self.open_at = time.perf_counter()

    def close(self):
        if self.open_at is not None:
            self.item_s.append(time.perf_counter() - self.open_at)
            self.open_at = None
            self.calib_s.append(kernel())

    def install(self, command):
        import importlib

        opener, closer = ITEM_MARKS.get(command, (None, None))

        def patch(target, before, after):
            module = importlib.import_module(f"spinqrc.{target[0]}")
            fn = getattr(module, target[1], None)
            if fn is None:
                return

            def wrapper(*args, **kwargs):
                if before:
                    self.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    if after:
                        self.close()

            wrapper.__wrapped__ = fn
            setattr(module, target[1], wrapper)

        if opener is not None:
            patch(opener, True, closer is None)
        if closer is not None:
            patch(closer, False, True)


class Tracer:
    """Aggregated spans of one process."""

    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, inclusive_s, self_s]
        self.stack: list[float] = []       # child time of each open span
        self.top_s = [0.0]                 # time in spans with no wrapped parent
        self.substeps: list[int] = []      # stable_step_count results
        self.propagators: list[list[int]] = []  # (vec dimension, RK4 steps) per build

    def wrap(self, name, fn, note=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, top_s, clock = self.stack, self.top_s, time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = stack.pop()
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - child
                if stack:
                    stack[-1] += duration
                else:
                    top_s[0] += duration
            if note is not None:
                note(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.layer = name
        return wrapper

    def install(self):
        import importlib

        notes = {"dynamics.stable_step_count":
                 lambda args, kwargs, result: self.substeps.append(int(result))}
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(f"spinqrc.{module_name}")
            fn = getattr(module, attr, None)
            # A module imported after a patch already holds the wrapper.
            if fn is not None and not hasattr(fn, "layer"):
                setattr(module, attr, self.wrap(name, fn, notes.get(name)))

        from spinqrc import dynamics

        def note_propagator(args, kwargs, result):
            n_steps = kwargs.get("n_steps", args[2] if len(args) > 2 else 0)
            self.propagators.append([int(result.shape[0]), int(n_steps)])

        cls = getattr(dynamics, "LindbladSystem", None)
        if cls is not None and hasattr(cls, "interval_propagator"):
            cls.interval_propagator = self.wrap("dynamics.interval_propagator",
                                                cls.interval_propagator, note_propagator)

    def dump(self):
        return {"top_s": self.top_s[0], "stats": self.stats, "substeps": self.substeps,
                "propagators": self.propagators}


def main(argv) -> int:
    layers = bool(argv) and argv[0] == "--layers"
    out_path, args = argv[int(layers)], argv[int(layers) + 1:]
    tracer = Tracer()
    if layers:
        tracer.install()
    command = args[0] if args else None
    items = Items()
    items.install(command)
    from spinqrc.cli import main as cli_main

    whole = command not in ITEM_MARKS
    if whole:
        items.start()
    start = time.perf_counter()
    code = cli_main(args)
    if whole:
        items.close()
    payload = {"wall_s": time.perf_counter() - start, "exit_code": code,
               "item_s": items.item_s, "calib_s": items.calib_s}
    if layers:
        payload.update(tracer.dump())
    with open(out_path, "w") as fh:
        json.dump(payload, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
