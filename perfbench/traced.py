"""Serial, in-process traced run of one burgerslab command line.

    python3 perfbench/traced.py <summary.json> <spans.json> <run id> <CLI args...>

Wraps the public functions that make up the pipeline's layers, runs
``burgerslab.cli.main`` on the CLI arguments and writes two files: the
per-layer summary (calls, self time and counters per wrapped function, the
traced wall time and the time no span covers) and every span as
``[span id, parent id, name, start, end]`` sharing the given run id.  The
CLI's own output goes to stdout as usual and the exit status is the CLI's;
like ``launch.py`` it marks the end of its import on stderr.

Run it with BURGERSLAB_WORKERS=1: spans recorded in pool workers would be
lost.  Spans are kept in memory and written once the CLI has returned.
"""

import importlib
import json
import sys
import time


def _normals(args, result):
    """Normals drawn: rows times the circulant embedding length 2M."""
    from burgerslab.fbm import _noise_length
    h, grid, _, replicas = args
    return len(replicas) * _noise_length(h, grid.spacing, grid.count - 1)


# (module, attribute path, {counter: fn(args, result)}).  The layer metrics
# are "<module>.<attribute path>.<calls|self_s|counter>"; counters are sums
# over calls and are computed from arguments and results, not timed.
LAYERS = (
    ("grids", "RandomnessSpec.generator", {}),
    ("fbm", "sample_fbm_fast_batch", {"rows": lambda a, r: len(a[3]),
                                      "normals": _normals}),
    ("fbm", "sample_fbm_fast", {}),
    ("fbm", "integrate_values", {"elements": lambda a, r: a[0].size}),
    ("envelopes", "lower_envelope", {"points": lambda a, r: len(a[0]),
                                     "nodes": lambda a, r: len(r.node_indices)}),
    ("envelopes", "all_slope_pairs_batch", {"rows": lambda a, r: len(a[0])}),
    ("burgers", "solve", {}),
    ("burgers", "build_potential", {}),
    ("fractal", "dimension_estimate", {}),
    ("fitting", "fit_scaling", {}),
    ("persistence", "estimate_persistence", {}),
    ("persistence", "verify_chain", {}),
    ("persistence", "estimate_fbm_max_mean", {}),
    ("rkhs", "KernelSpace.sample_batch", {"rows": lambda a, r: len(a[2])}),
    ("rkhs", "build_space", {}),
    ("rkhs", "combined_trend", {}),
    ("rkhs", "verify_shift_inequality", {}),
    ("experiments", "run_experiment", {}),
)


class Tracer:
    """Records one span per wrapped call, with its parent, plus counters."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index]
        self.stack = []
        self.counters = {}

    def wrap(self, name, fn, counts):
        spans, stack, counters = self.spans, self.stack, self.counters

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            for key, count in counts.items():
                full = f"{name}.{key}"
                counters[full] = counters.get(full, 0) + count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace every reference to each layer function by its wrapper.

        Several modules from-import their callees, so each burgerslab module
        attribute bound to the same function object is rebound; methods are
        patched on their class.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if n == "burgerslab" or n.startswith("burgerslab.")]
        for module_name, path, counts in LAYERS:
            module = importlib.import_module(f"burgerslab.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            wrapper = self.wrap(f"{module_name}.{path}", original, counts)
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def summary(self) -> dict:
        """Calls, self time and counters per layer; self time is a span's
        duration minus the durations of its direct children (calls are
        serial, so children never overlap)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layers = {}
        for module, path, counts in LAYERS:
            name = f"{module}.{path}"
            layers[name] = {"calls": 0, "self_s": 0.0}
            for key in counts:
                layers[name][key] = self.counters.get(f"{name}.{key}", 0)
        for (name, start, end, parent), inner in zip(self.spans, child):
            layers[name]["calls"] += 1
            layers[name]["self_s"] += (end - start) - inner
        covered = sum(end - start for _, start, end, parent in self.spans
                      if parent < 0)
        return {"layers": layers, "covered_s": covered}


def main(argv) -> int:
    import burgerslab.cli

    sys.stderr.write(f"perfbench-imported {time.monotonic()!r}\n")
    sys.stderr.flush()
    summary_path, spans_path, run_id, cli_args = argv[0], argv[1], argv[2], argv[3:]
    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    status = burgerslab.cli.main(cli_args)
    wall = time.perf_counter() - start
    doc = tracer.summary()
    doc.update({"run_id": run_id, "status": status, "wall_s": wall,
                "unattributed_s": wall - doc.pop("covered_s")})
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"run_id": run_id,
                   "fields": ["span", "parent", "name", "start", "end"],
                   "spans": [[i, parent, name, start, end] for i, (name, start, end, parent)
                             in enumerate(tracer.spans)]}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
