"""pognac benchmark: simulated pulse emissions per host second, set-up time,
peak memory and failed runs, for three workloads, plus a traced run that
breaks the time down by layer. See perfbench/README.md.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload fig2|drift|short_windows
                             [--seed N] [--seconds S] [--trace 0|1]

Closed loop, one client: every repeat is a fresh single-threaded child
interpreter (perfbench/child.py), started only after the previous one has
ended. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the metric names and units come from
BENCHMARK.json (end_to_end with --trace 0, per_layer with --trace 1).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
GOLDEN = HERE / "golden.json"
OUT = Path(".perfbench_out")

DEFAULT_SEED = 1
# Set-up-only children before each untraced repeat, so set-up is sampled
# across the whole run, not in one burst at its start.
SETUP_PROBES = 3
MIN_REPEATS = 3  # workload children per untraced run, however short --seconds is
DEADLINE_S = 170.0  # no child may still run this long after the start
Z_MAX = 5.0  # accuracy check: |observed - analytic QBER| / stderr

# Host-speed probe. Other tenants of a shared host slow a core by up to
# 40 % for seconds at a time, so one child's wall time says as much about
# the host as about pognac. The parent shares the child's core and times a
# small loop of the per-pulse kind (a 2x2 complex matrix-vector product, a
# normal draw, a tuple appended) every PROBE_EVERY_S while the child lives.
# Each of the child's timings is scaled by the mean of PROBE_REF_S / probe
# time over the probes taken in its interval, i.e. integrated over time and
# expressed as on a core that runs the loop in PROBE_REF_S. The reference
# sets the scale only: it is about the loop's median time beside a running
# child on the 2-vCPU Xeon VM the benchmark was tuned on. The probes take
# the child's core for about 1 % of its life.
PROBE_LOOPS = 150
PROBE_REF_S = 0.6e-3
PROBE_EVERY_S = 0.05

# BLAS/OpenMP pools pinned to one thread, in the child's environment only.
CHILD_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


@dataclass(frozen=True)
class Workload:
    scenario: str
    config: str | None  # config file in perfbench/, for the custom scenario
    csvs: tuple[str, ...]  # files the run writes, one per pipeline, in run order
    accuracy_labels: tuple[str, ...]  # checked against preset_expected_qber in csvs[0]


# Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {
    "fig2": Workload("fig2", None, ("run.csv",), ("H", "V")),
    "drift": Workload("drift", None, ("run_pognac.csv", "run_inline.csv"), ("H", "V")),
    # double_click_policy = random: preset_expected_qber ignores the coin
    # that assigns double clicks, so it has no accuracy check (README.md).
    "short_windows": Workload("custom", "short_windows.cfg", ("run.csv",), ()),
}


@dataclass
class Child:
    """Outcome of one child interpreter."""

    trace: bool
    setup_only: bool
    cwd: Path
    t_launch: float = math.nan
    probes: list = field(default_factory=list)  # (monotonic time, probe s) while the child lived
    result: dict = field(default_factory=dict)
    hashes: dict = field(default_factory=dict)
    csv_bytes: int = 0
    rows: list = field(default_factory=list)  # per csv: {label: [correct, error, discarded]}
    windows: int = 0
    z: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def speed(self, t0: float, t1: float) -> float:
        """Mean of PROBE_REF_S / probe time over the probes taken from t0 to
        t1, or over all the child's probes when none fell in that interval."""
        inside = [p for t, p in self.probes if t0 <= t <= t1] or [p for _, p in self.probes]
        return statistics.fmean(PROBE_REF_S / p for p in inside)

    @property
    def setup_s(self) -> float:
        """Launch to RunConfig built, scaled to the reference core."""
        t_config = self.result["t_config"]
        return (t_config - self.t_launch) * self.speed(self.t_launch, t_config)

    @property
    def run_s(self) -> float:
        """The run's wall time, scaled to the reference core."""
        return self.result["run_s"] * self.speed(*self.result["t_run"])

    @property
    def pulses_per_s(self) -> float:
        return self.result["emissions"] / self.run_s

    @property
    def raw_pulses_per_s(self) -> float:
        return self.result["emissions"] / self.result["run_s"]


_PROBE_MATRIX = np.array([[0.6, 0.8j], [0.8j, 0.6]])
_PROBE_STATE = np.array([1.0, 0.0j])
_PROBE_RNG = np.random.default_rng(0)


def probe() -> float:
    """Seconds this process takes for one pass of the probe loop."""
    t0 = time.perf_counter()
    out = []
    for _ in range(PROBE_LOOPS):
        amp = _PROBE_MATRIX @ _PROBE_STATE
        out.append((abs(amp[0]) ** 2, _PROBE_RNG.normal(0.0, 0.1)))
    return time.perf_counter() - t0


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env.update(CHILD_THREADS)
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    return env


def read_series(path: Path) -> tuple[dict, int]:
    """Per-label [n_correct, n_error, n_discarded] totals and the window
    count of one QBER CSV."""
    totals: dict[str, list[int]] = {}
    windows = set()
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    for line in lines[1:]:
        start, label, c, e, d, _ = line.split(",")
        windows.add(start)
        cell = totals.setdefault(label, [0, 0, 0])
        cell[0] += int(c)
        cell[1] += int(e)
        cell[2] += int(d)
    return totals, len(windows)


def run_child(wl: Workload, seed: int, run_dir: Path, index: int, trace: bool, setup_only: bool,
              env: dict, deadline: float) -> Child:
    cwd = run_dir / f"{index:03d}"
    child = Child(trace=trace, setup_only=setup_only, cwd=cwd)
    cwd.mkdir(parents=True)
    result_path = cwd / "result.json"
    cmd = [sys.executable, str(CHILD), "--scenario", wl.scenario, "--seed", str(seed),
           "--result", str(result_path.resolve()), "--trace", str(int(trace))]
    if wl.config is not None:
        cmd += ["--config", str(HERE / wl.config)]
    if setup_only:
        cmd.append("--setup-only")
    elif wl.accuracy_labels:
        cmd += ["--expect", *wl.accuracy_labels]
    if time.monotonic() >= deadline:
        child.problems.append("no time left before the deadline")
        return child
    log_path = cwd / "child.log"
    with open(log_path, "w") as log:
        child.t_launch = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            while True:
                child.probes.append((time.monotonic(), probe()))
                if proc.poll() is not None:
                    break
                if time.monotonic() >= deadline:
                    child.problems.append(f"timed out after {time.monotonic() - child.t_launch:.0f} s")
                    return child
                time.sleep(PROBE_EVERY_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    log_tail = log_path.read_text().strip()[-500:]
    if proc.returncode != 0 or not result_path.is_file():
        child.problems.append(f"child exited {proc.returncode}: {log_tail}")
        return child
    child.result = json.loads(result_path.read_text())
    if setup_only:
        return child
    if child.result["status"] != 0:
        child.problems.append(f"pognac exited {child.result['status']}: {log_tail}")
        return child

    for fname in (*wl.csvs, "stdout.txt"):
        path = cwd / fname
        if not path.is_file():
            child.problems.append(f"missing output {fname}")
            return child
        child.hashes[fname] = sha256(path)
    for fname in wl.csvs:
        child.csv_bytes += (cwd / fname).stat().st_size
        try:
            totals, windows = read_series(cwd / fname)
        except ValueError as exc:
            child.problems.append(f"output: malformed {fname}: {exc}")
            return child
        child.rows.append(totals)
        child.windows = child.windows or windows
    check_accuracy(child, wl)
    if trace:
        check_invariants(child)
    return child


def check_accuracy(child: Child, wl: Workload) -> None:
    """Observed QBER of each label measured in its own basis against the
    model's analytic expectation q0, on the first pipeline, as a z-score
    with the binomial stderr sqrt(q0 (1 - q0) / n) expected under q0."""
    expected = child.result["expected_qber"]
    for label in wl.accuracy_labels:
        c, e, _ = child.rows[0].get(label, (0, 0, 0))
        n = c + e
        if n == 0:
            child.problems.append(f"accuracy: no sifted {label} outcomes")
            continue
        q, q0 = e / n, expected[label]
        se = math.sqrt(q0 * (1.0 - q0) / n)
        z = (q - q0) / se if se > 0 else math.inf
        child.z[label] = z
        if not abs(z) <= Z_MAX:
            child.problems.append(f"accuracy: {label} QBER {q:.6f} vs analytic "
                                  f"{expected[label]:.6f}, z = {z:+.2f}")


def check_invariants(child: Child) -> None:
    """Outcome counts add up to the pulses sent, and the CSV rows add up to
    the clicks, for each pipeline."""
    outcomes = child.result["outcomes"]
    if not outcomes:
        return  # detection no longer runs per pulse; nothing was counted
    if len(outcomes) != len(child.rows):
        child.problems.append(f"invariant: {len(outcomes)} detection streams for {len(child.rows)} CSVs")
        return
    per_pipeline = child.result["emissions"] // len(outcomes)
    for k, (tally, totals) in enumerate(zip(outcomes, child.rows)):
        if sum(tally.values()) != per_pipeline:
            child.problems.append(f"invariant: pipeline {k} has {sum(tally.values())} outcomes "
                                  f"for {per_pipeline} pulses")
        clicks = sum(v for k2, v in tally.items() if k2 != "none")
        rows = sum(sum(cell) for cell in totals.values())
        if rows != clicks:
            child.problems.append(f"invariant: pipeline {k} CSV rows total {rows}, clicks {clicks}")


def check_outputs(children: list[Child], golden: dict | None) -> None:
    """Every repeat's output bytes equal the stored seed-commit hashes when
    there are any for this seed, and equal each other in any case."""
    ran = [c for c in children if c.hashes]
    for c in ran:
        ref = golden if golden is not None else ran[0].hashes
        for fname, digest in c.hashes.items():
            if ref.get(fname) != digest:
                what = "the stored hash" if golden is not None else "the first repeat"
                c.problems.append(f"output: {fname} differs from {what}")


def span_table(path: Path) -> dict[str, tuple[float, float, int]]:
    """name -> (total s, self s, calls) from a child's recorded spans."""
    with np.load(path) as z:
        names = [str(n) for n in z["names"]]
        nid, parent = z["name_id"].astype(np.intp), z["parent"].astype(np.intp)
        dur = (z["end"] - z["start"]) * 1e-9
    nested = parent >= 0
    self_s = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    total = np.bincount(nid, weights=dur, minlength=len(names))
    own = np.bincount(nid, weights=self_s, minlength=len(names))
    calls = np.bincount(nid, minlength=len(names))
    return {n: (float(total[i]), float(own[i]), int(calls[i])) for i, n in enumerate(names)}


def layer_metrics(child: Child, spans: dict) -> dict[str, float]:
    def total(name):
        return spans.get(name, (0.0, 0.0, 0))[0]

    def own(name):
        return spans.get(name, (0.0, 0.0, 0))[1]

    def calls(name):
        return float(spans.get(name, (0.0, 0.0, 0))[2])

    emissions = child.result["emissions"]
    outcomes = {k: sum(t.get(k, 0) for t in child.result["outcomes"])
                for k in ("click_0", "click_1", "double", "none")}
    detected = sum(outcomes.values())
    sifted = sum(cell[0] + cell[1] for totals in child.rows for cell in totals.values())
    sift_s = total("runner.sift_and_qber")
    m = {
        "runner.generate_sequence.s": total("runner.generate_sequence"),
        "runner.self.s": own("runner.run_experiment") + own("runner.drift_comparison"),
        "runner.sift_and_qber.s": sift_s,
        "runner.sift_and_qber.records_per_s": emissions / sift_s if sift_s > 0 else 0.0,
        "runner.sifted_ratio": sifted / emissions,
        "runner.windows": float(child.windows),
        "receiver.click_ratio": (detected - outcomes["none"]) / detected if detected else 0.0,
        "cli.csv_bytes": float(child.csv_bytes),
        "cli.self.s": own("cli.run"),
    }
    for name in ("encoder.emit_pulse", "encoder.inline_encoder_reference", "polarization.apply",
                 "receiver.simulate_detection"):
        m[name + ".s"] = total(name)
        m[name + ".calls"] = calls(name)
    m["waveform.pattern_for_state.calls"] = calls("waveform.pattern_for_state")
    for name in ("presets.preset_config", "cli.parse_config", "cli.format_config",
                 "runner.QberSeries.to_csv"):
        m[name + ".s"] = total(name)
    for k, v in outcomes.items():
        m["receiver.outcome." + k] = float(v)
    for label in ("H", "V"):
        m["accuracy.abs_z_" + label] = abs(child.z.get(label, 0.0))
        c, e, _ = child.rows[0].get(label, (0, 0, 0))
        ref = child.result["reference_qber"].get(label)
        m["accuracy.abs_ref_err_" + label] = abs(e / (c + e) - ref) if ref is not None and c + e else 0.0
    return m


def median(values):
    return statistics.median(values) if values else 0.0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=44.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    src = Path("src").resolve()
    spec_path = Path("BENCHMARK.json")
    if not (src / "pognac" / "cli.py").is_file() or not spec_path.is_file():
        print("error: run from the root of a pognac source checkout "
              "(src/pognac and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    wl = WORKLOADS[args.workload]
    golden = json.loads(GOLDEN.read_text()).get(args.workload, {}).get(str(args.seed))
    env = child_env(src)
    # SystemExit unwinds run_child, which kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # The children inherit this: each runs on the core the probe measures.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run_dir = OUT / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    t_start = time.monotonic()
    deadline = t_start + DEADLINE_S
    children: list[Child] = []

    def spawn(trace=False, setup_only=False) -> Child:
        c = run_child(wl, args.seed, run_dir, len(children), trace, setup_only, env, deadline)
        children.append(c)
        kind = "setup" if setup_only else ("traced" if trace else "run")
        line = f"child {len(children) - 1:2d} {kind:6s}"
        if c.ok and not setup_only:
            line += (f" {c.pulses_per_s:,.0f} pulses/s (raw {c.raw_pulses_per_s:,.0f}, "
                     f"{c.result['run_s']:.2f} s, host speed {c.speed(*c.result['t_run']):.3f}),")
        if "t_config" in c.result:
            line += f" set-up {c.setup_s:.3f} s"
        print(line, flush=True)
        return c

    spawn(setup_only=True)  # warm-up: byte-compiles the package, not a sample
    t_measure = time.monotonic()
    last = 0.0
    while True:
        elapsed = time.monotonic() - t_measure
        repeats = sum(1 for c in children if not c.setup_only and not c.trace)
        if repeats >= (1 if args.trace else MIN_REPEATS) and elapsed + last > args.seconds:
            break
        if time.monotonic() + last > deadline:
            break
        t0 = time.monotonic()
        if not args.trace:
            for _ in range(SETUP_PROBES):
                spawn(setup_only=True)
        if not spawn().ok:
            break
        if args.trace and not spawn(trace=True).ok:
            break
        last = time.monotonic() - t0
    check_outputs(children, golden)
    for i, c in enumerate(children):
        if not c.ok:
            print(f"child {i:2d} FAILED: {'; '.join(c.problems)}")

    samples = [c for c in children[1:] if c.ok]
    runs = [c for c in samples if not c.setup_only and not c.trace]
    traced = [c for c in samples if c.trace]
    failed = sum(1 for c in children if not c.ok)
    metrics = {}
    if args.trace:
        per_child = [layer_metrics(c, span_table(c.cwd / "spans.npz")) for c in traced]
        for name in per_child[0] if per_child else ():
            metrics[name] = median([m[name] for m in per_child])
        if traced and runs:
            metrics["trace_overhead"] = median([c.pulses_per_s for c in runs]) / median(
                [c.pulses_per_s for c in traced])
        z = {label: [round(c.z[label], 3) for c in traced if label in c.z] for label in wl.accuracy_labels}
        print(f"accuracy z per traced repeat: {z}")
    else:
        metrics = {
            "pulses_per_s": median([c.pulses_per_s for c in runs]),
            "setup_s": median([c.setup_s for c in samples]),
            "peak_rss_mb": median([c.result["peak_rss_mb"] for c in runs]),
            "passed_frac": (len(children) - failed) / len(children),
        }
        print(f"samples: {len(runs)} runs, {len(samples)} set-ups; failed_frac = "
              f"{failed}/{len(children)} = {failed / len(children):.3f}")
    if samples:
        r = next((c.result for c in samples if "python" in c.result), {})
        print(f"env: python {r.get('python')}, numpy {r.get('numpy')}, nproc {os.cpu_count()}, "
              f"child threads {CHILD_THREADS}, seed {args.seed}, golden {'yes' if golden else 'no'}")

    correct = failed == 0 and all(d["name"] in metrics for d in declared)
    report = {d["name"]: {"value": metrics.get(d["name"], 0.0), "unit": d["unit"]} for d in declared}
    for name, m in report.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(children), "failed": failed,
                      "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
