"""One benchmark repeat in a fresh interpreter.

Builds the workload's RunConfig (the end of set-up), runs it through
``pognac.cli.run(CliInvocation(...))`` with its working directory as the
output directory, and writes a JSON result file. With ``--trace 1`` it
first wraps the public functions of each layer at their import sites and
also writes every recorded span to ``spans.npz``. run.py starts this
script; it is not imported.

Usage: python3 child.py --scenario NAME [--config FILE] --seed N
                        --result FILE [--trace 0|1] [--setup-only]
                        [--expect H V ...]
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import platform
import resource
import time
from array import array
from pathlib import Path

# (module, attribute, span name). Each attribute is replaced where the
# caller looks it up, so calls made inside the package go through the
# wrapper. An attribute that a later version no longer has is skipped and
# its metrics read 0.
TRACE_POINTS = (
    ("pognac.cli", "preset_config", "presets.preset_config"),
    ("pognac.cli", "parse_config", "cli.parse_config"),
    ("pognac.cli", "format_config", "cli.format_config"),
    ("pognac.cli", "run_experiment", "runner.run_experiment"),
    ("pognac.cli", "drift_comparison", "runner.drift_comparison"),
    ("pognac.runner", "generate_sequence", "runner.generate_sequence"),
    ("pognac.runner", "sift_and_qber", "runner.sift_and_qber"),
    ("pognac.runner", "QberSeries.to_csv", "runner.QberSeries.to_csv"),
    ("pognac.runner", "emit_pulse", "encoder.emit_pulse"),
    ("pognac.runner", "inline_encoder_reference", "encoder.inline_encoder_reference"),
    ("pognac.runner", "apply", "polarization.apply"),
    ("pognac.encoder", "apply", "polarization.apply"),
    ("pognac.encoder", "pattern_for_state", "waveform.pattern_for_state"),
    ("pognac.runner", "simulate_detection", "receiver.simulate_detection"),
)


class Tracer:
    """In-memory span recorder: name, start, end (ns) and parent index of
    every call through a wrapped function, in call order."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        # One outcome tally per pipeline; a detection of pulse 0 opens one.
        self.outcomes: list[dict[str, int]] = []

    def wrap(self, name: str, fn, on_result=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock = time.perf_counter_ns
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def count_outcome(self, record) -> None:
        if record.pulse_index == 0:
            self.outcomes.append({})
        tally = self.outcomes[-1]
        tally[record.outcome] = tally.get(record.outcome, 0) + 1

    def install(self) -> None:
        for module, path, name in TRACE_POINTS:
            *owners, attr = path.split(".")
            owner = importlib.import_module(module)
            for part in owners:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            hook = self.count_outcome if name == "receiver.simulate_detection" else None
            setattr(owner, attr, self.wrap(name, fn, hook))

    def save(self, path: Path) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
        )


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--scenario", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--expect", nargs="*", default=[])
    args = p.parse_args()

    # Set-up: import the package and build the workload's RunConfig.
    from pognac import cli, presets

    if args.config is not None:
        config = cli.parse_config(Path(args.config).read_text())
    else:
        config = presets.preset_config(args.scenario)
    t_config = time.monotonic()

    out = {"t_config": t_config}
    if not args.setup_only:
        import numpy

        tracer = Tracer() if args.trace else None
        run = cli.run
        if tracer is not None:
            tracer.install()
            run = tracer.wrap("cli.run", run)
        inv = cli.CliInvocation(
            scenario=args.scenario,
            config_path=args.config,
            seed_override=args.seed,
            output_path="run.csv",
        )
        stdout = io.StringIO()
        t_start, t0 = time.monotonic(), time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            status = run(inv)
        run_s, t_end = time.perf_counter() - t0, time.monotonic()
        Path("stdout.txt").write_text(stdout.getvalue())
        pipelines = 2 if args.scenario == "drift" else 1
        out.update(
            status=status,
            run_s=run_s,
            t_run=[t_start, t_end],
            emissions=config.n_pulses() * pipelines,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            expected_qber={label: presets.preset_expected_qber(config, label) for label in args.expect},
            reference_qber={
                label: presets.REFERENCE_QBER[(args.scenario, label)]
                for label in args.expect
                if (args.scenario, label) in presets.REFERENCE_QBER
            },
            python=platform.python_version(),
            numpy=numpy.__version__,
        )
        if tracer is not None:
            tracer.save(Path("spans.npz"))
            out["outcomes"] = tracer.outcomes
    Path(args.result).write_text(json.dumps(out))


if __name__ == "__main__":
    main()
