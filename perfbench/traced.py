"""One traced sweep, in process: `copysampler run` with spans per layer.

Run as `python3 perfbench/traced.py <spans.csv> <run args...>`.  It wraps
the package's public functions where their callers look them up, calls
`copysampler.cli.main(["run", ...])`, and writes every span as
`name,start,end,parent` rows (parent is a row index, -1 for the root),
then `#name,errors` lines (exceptions raised out of a span) and
`@name,rows` lines (rows passed to a batched call).  `perfbench/layers.py`
turns that file into the per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

import numpy as np

from copysampler import cli, core, copies, gp, harness, oracles, samplers


class Tracer:
    """Spans kept in memory: (name, start, end, parent index)."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.stack: list[int] = []
        self.errors: dict[str, int] = {}
        self.rows: dict[str, int] = {}

    def span(self, name, fn):
        """Run `fn()` inside a span called `name`."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        start = perf_counter()
        try:
            return fn()
        except Exception:
            self.errors[name] = self.errors.get(name, 0) + 1
            raise
        finally:
            self.spans[idx] = (name, start, perf_counter(), parent)
            self.stack.pop()

    def wrap(self, name, fn, rows=False):
        """`fn` with a span around each call.

        `name` may be a function of the positional arguments.  With `rows`,
        the call is a method taking a batch and its row count is tallied.
        """
        namer = name if callable(name) else (lambda args: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = namer(args)
            if rows:
                self.rows[label] = self.rows.get(label, 0) + np.atleast_2d(args[1]).shape[0]
            return self.span(label, lambda: fn(*args, **kwargs))

        return traced

    def write(self, path):
        with open(path, "w") as f:
            for name, start, end, parent in self.spans:
                f.write(f"{name},{start:.9f},{end:.9f},{parent}\n")
            for name, count in sorted(self.errors.items()):
                f.write(f"#{name},{count}\n")
            for name, count in sorted(self.rows.items()):
                f.write(f"@{name},{count}\n")


def install(tracer: Tracer) -> None:
    """Wrap each traced name where its caller looks it up."""
    wrap = tracer.wrap

    def patch(owner, attr, name, rows=False):
        setattr(owner, attr, wrap(name, getattr(owner, attr), rows))

    # harness and cli import these by name
    patch(cli, "run_experiment", "harness.run_experiment")
    patch(harness, "random_sampler", "samplers.random_sampler")
    patch(harness, "boundary_sampler", "samplers.boundary_sampler")
    patch(harness, "jacobian_sampler", "samplers.jacobian_sampler")
    patch(harness, "fast_bayesian_sampler", "gp.fast_bayesian_sampler")
    patch(harness, "plot_2d", "svgplot.plot_2d")
    harness.train = wrap(lambda args: f"copies.train.{args[0]}", harness.train)
    # the jacobian sampler's logistic substitute
    patch(samplers, "train", "copies.train.substitute")
    # gp reaches these through its module globals
    patch(gp, "posterior_fit", "gp.posterior_fit")
    patch(gp, "maximize_acquisition", "gp.maximize_acquisition")
    # harness calls these through the metrics module
    patch(harness.metrics, "build_reference_set", "metrics.build_reference_set")
    patch(harness.metrics, "empirical_fidelity_error", "metrics.fidelity")
    patch(harness.metrics, "balanced_empirical_fidelity_error", "metrics.fidelity")
    # the table oracle's CSV load, from harness and from SyntheticDataset.from_csv
    load = wrap("core.load_labeled_csv", core.load_labeled_csv)
    core.load_labeled_csv = harness.load_labeled_csv = load

    # class attributes
    patch(harness.OracleSpec, "build", "oracles.build")
    patch(core.SyntheticDataset, "to_csv", "core.SyntheticDataset.to_csv")
    from_csv = core.SyntheticDataset.__dict__["from_csv"].__func__
    core.SyntheticDataset.from_csv = classmethod(
        wrap("core.SyntheticDataset.from_csv", from_csv))
    patch(copies.CopyModel, "predict_many", "copies.predict_many", rows=True)
    patch(oracles.Oracle, "query", "oracles.query")
    patch(oracles.Oracle, "query_many", "oracles.query_many", rows=True)
    patch(gp.GPPosterior, "mean_var", "gp.GPPosterior.mean_var", rows=True)


def main(argv):
    spans_path, run_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    code = tracer.span("cli.main", lambda: cli.main(["run", *run_args]))
    tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
