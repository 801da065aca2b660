"""Benchmark of univalence_lab: one workload, one process, one thread.

    python3 perfbench/run.py --workload {verdict,image,chain} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
src/ directory and nowhere else.  The run makes one untimed warm-up
pass, then times passes over the workload for S seconds, gates every output
against perfbench/oracles.py and, after every second pass, times set-up in
a fresh interpreter.
With --trace 1 it times untraced passes for half of S and traced passes for
the other half, and reports per-layer metrics instead of end-to-end ones.

The speed of a shared virtual machine drifts by tens of percent over
minutes.  So a fixed reference chunk of work, which does not use the
package, runs before every step and after the last, and around every set-up
sample.  The end-to-end times (`wall_s`, `setup_s`, `good_ops_per_s`) are
normalised by it: each is scaled to the speed at which one chunk takes
REF_CHUNK_S.  The raw times stand in the run record.

Standard output ends with one JSON line:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Above it stands the run record: machine, per-pass figures, every failed op
by name, and for traced runs the spans' summary.  The record (and, when
traced, the spans of the last traced pass) is also written under
.perfbench_out/ in the checkout.
"""

import os

# one thread for every numeric library; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

MIN_PASSES = 3

# The reference chunk's median time on the machine the bounds were set on
# (2-core x86-64 VM, Python 3.12, numpy 2.4); normalised times are in
# seconds of that machine at that speed.
REF_CHUNK_S = 0.015
REF_COEFFS = np.linspace(0.1, 1.0, 64)
REF_Z1 = np.array([0.3 + 0.2j])
REF_ZV = np.linspace(0.0, 0.9, 16384) * np.exp(1j * np.linspace(0.0, 6.0, 16384))

# what a fresh user process pays before its first command: interpreter,
# numpy and package import, and parsing the workload's configs
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import univalence_lab.cli as cli
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        cli.parse_config(fh.read())
"""


def import_package():
    if not os.path.isfile(os.path.join(SRC, "univalence_lab", "__init__.py")):
        sys.exit(f"perfbench: no package source at {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import univalence_lab

    if not os.path.abspath(univalence_lab.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported univalence_lab from {univalence_lab.__file__}, not {SRC}")
    return univalence_lab


def _read(path):
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def machine_record(package):
    import numpy as np

    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = []
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        d = os.path.join(base, entry)
        if entry.startswith("index"):
            caches.append(f"L{_read(os.path.join(d, 'level'))} {_read(os.path.join(d, 'type'))} "
                          f"{_read(os.path.join(d, 'size'))}")
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": package.backend_name() if hasattr(package, "backend_name") else None,
        "loadavg_at_start": list(os.getloadavg()),
    }


def setup_once(configs):
    """Wall time of one fresh interpreter that imports the CLI and parses
    the configs."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, *configs],
                          capture_output=True, text=True, cwd=ROOT, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up failed:\n{proc.stderr}")
    return elapsed


def reference_chunk():
    """A fixed piece of work that does not touch the package: a pure-Python
    float loop, a numpy loop over 1-element arrays and a vectorised complex
    Horner loop, about 5 ms each on the machine REF_CHUNK_S was set on.
    Its time tracks how fast the machine runs at the moment."""
    s = 0.0
    for i in range(50000):
        s += (i * 0.5) % 7.0
    acc = np.zeros(1, complex)
    for _ in range(56):
        for c in REF_COEFFS:
            acc = acc * REF_Z1 + c
    vec = np.zeros_like(REF_ZV)
    for _ in range(3):
        for c in REF_COEFFS:
            vec = vec * REF_ZV + c
    return s, acc, vec


def timed_ref():
    t0 = time.perf_counter()
    reference_chunk()
    return time.perf_counter() - t0


def run_pass(plan, workloads, tracer=None):
    """Run every step once, with a reference chunk before each step and
    after the last.  Returns (wall seconds of the steps, wall seconds of the
    reference chunks, raw outputs, warnings)."""
    raws, wall, ref = [], 0.0, 0.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for i, step in enumerate(plan.steps):
            ref += timed_ref()
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                raws.append(step.run())
            except Exception as exc:  # a failed op, counted by the gate
                raws.append(workloads.Raised(exc))
            wall += time.perf_counter() - t0
        ref += timed_ref()
    return wall, ref, raws, Counter(w.category.__name__ for w in caught)


def normalised(wall, ref, n_chunks):
    """`wall` scaled to the machine speed at which one reference chunk takes
    REF_CHUNK_S."""
    return wall * REF_CHUNK_S * n_chunks / ref


class Tally:
    """Gate results over all passes of a run."""

    def __init__(self, plan, workloads):
        self.plan, self.workloads = plan, workloads
        self.attempted = self.failed = 0
        self.per_pass = []  # (ok, wrong, raised) of each pass
        self.failures = {}  # op name -> (status, detail, known defect)

    def gate(self, raws):
        counts = Counter()
        for step, raw in zip(self.plan.steps, raws):
            for op, (status, detail) in zip(step.ops, self.workloads.gate_step(step, raw)):
                counts[status] += 1
                if status != "ok":
                    self.failures[op] = (status, detail, step.known_defect)
        self.attempted += sum(counts.values())
        self.failed += counts["wrong"] + counts["raised"]
        self.per_pass.append((counts["ok"], counts["wrong"], counts["raised"]))

    @property
    def correct(self):
        return all(defect is not None for _, _, defect in self.failures.values())

    def inventory(self):
        """Failed ops grouped by step and status, op numbers as ranges."""
        groups = {}
        for op, (status, detail, defect) in self.failures.items():
            step, _, num = op.partition("#")
            g = groups.setdefault((step, status, detail), {"known_defect": defect, "ops": []})
            g["ops"].append(int(num) if num else None)
        out = []
        for (step, status, detail), g in groups.items():
            nums = sorted(n for n in g["ops"] if n is not None)
            out.append({"step": step, "status": status, "count": len(g["ops"]), "detail": detail,
                        "ops": f"{step}#{_ranges(nums)}" if nums else step,
                        "known_defect": g["known_defect"]})
        return out


def _ranges(nums):
    parts, start = [], None
    for i, n in enumerate(nums):
        if start is None:
            start = n
        if i + 1 == len(nums) or nums[i + 1] != n + 1:
            parts.append(str(start) if start == n else f"{start}-{n}")
            start = None
    return ",".join(parts)


def timed_passes(plan, workloads, tally, seconds, make_tracer=None, between=None):
    """Passes until `seconds` of pass and reference time (at least
    MIN_PASSES).  `between` is called, untimed, after every second pass."""
    walls, refs, tracers, warned = [], [], [], Counter()
    while sum(walls) + sum(refs) < seconds or len(walls) < MIN_PASSES:
        tracer = make_tracer() if make_tracer else None
        if tracer is not None:
            with tracer:
                wall, ref, raws, caught = run_pass(plan, workloads, tracer)
            tracers.append(tracer)
        else:
            wall, ref, raws, caught = run_pass(plan, workloads)
        walls.append(wall)
        refs.append(ref)
        warned.update(caught)
        tally.gate(raws)
        if between is not None and len(walls) % 2 == 1:
            between()
    return walls, refs, tracers, warned


def metric(value, unit):
    return {"value": value, "unit": unit}


PER_LAYER_UNITS = {"_s": "s", "kept_ratio": "ratio", "bytes_computed": "B", "bytes_written": "B"}


def layer_unit(name):
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("verdict", "image", "chain"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = import_package()
    import tracing as tr
    import workloads

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "machine": machine_record(package)}
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        plan = workloads.WORKLOADS[args.workload](ROOT, args.seed, workdir)
        metrics = {}
        tally = Tally(plan, workloads)
        _, _, raws, _ = run_pass(plan, workloads)  # warm-up: fills the quadrature caches
        tally.gate(raws)

        share = args.seconds / 2.0 if args.trace else args.seconds
        # set-up is sampled between passes, so that its samples spread over
        # the run like the passes do instead of sharing one short window
        setup_raw, setup_norm = [], []

        def sample_setup():
            ref = timed_ref()
            t = setup_once(plan.configs)
            ref += timed_ref()
            setup_raw.append(t)
            setup_norm.append(normalised(t, ref, 2))

        walls, refs, _, warned = timed_passes(plan, workloads, tally, share,
                                              between=None if args.trace else sample_setup)
        n_chunks = len(plan.steps) + 1
        norm_walls = [normalised(w, r, n_chunks) for w, r in zip(walls, refs)]
        ok, wrong, raised = tally.per_pass[-1]
        failed_frac = (wrong + raised) / plan.n_ops
        record.update({"ops_per_pass": plan.n_ops, "pass_wall_s": walls, "pass_ref_s": refs,
                       "pass_normalised_s": norm_walls, "warnings_per_pass": dict(warned)})
        wall_s = statistics.median(norm_walls)
        if not args.trace:
            record.update({"setup_samples_s": setup_raw, "setup_normalised_s": setup_norm})
            metrics = {
                "setup_s": metric(statistics.median(setup_norm), "s"),
                "wall_s": metric(wall_s, "s"),
                "good_ops_per_s": metric(ok / wall_s, "1/s"),
                "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            }
            # all six end-to-end figures; the two failure counts are not in the
            # bounded metrics because they are 0 on some workloads
            record["end_to_end"] = {
                **metrics,
                "ops_failed_frac": metric(failed_frac, "ratio") | {"base": plan.n_ops},
                "wrong_results": metric(wrong, "count"),
                "raw_setup_s": metric(statistics.median(setup_raw), "s"),
                "raw_wall_s": metric(statistics.median(walls), "s"),
            }
        else:
            traced_walls, traced_refs, tracers, _ = timed_passes(
                plan, workloads, tally, share, lambda: tr.Tracer(package))
            traced_norm = [normalised(w, r, n_chunks) for w, r in zip(traced_walls, traced_refs)]
            per_pass = [tr.layer_metrics(t.spans) for t in tracers]
            for name in per_pass[0]:
                metrics[name] = metric(statistics.median(p[name] for p in per_pass), layer_unit(name))
            metrics["trace.overhead_s"] = metric(statistics.median(traced_norm) - wall_s, "s")
            metrics["trace.spans"] = metric(statistics.median(len(t.spans) for t in tracers), "count")
            metrics["gate.wrong_results"] = metric(wrong, "count")
            metrics["gate.ops_failed_frac"] = metric(failed_frac, "ratio")
            last = tracers[-1]
            record.update({
                "traced_pass_wall_s": traced_walls,
                "traced_pass_ref_s": traced_refs,
                "trace_missing_targets": last.missing,
                "raised_spans": tr.raised_spans(last.spans),
            })
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
            with open(spans_path, "w", encoding="ascii") as fh:
                for span in last.spans:
                    fh.write(json.dumps(span.to_json()) + "\n")
            record["spans_file"] = os.path.relpath(spans_path, ROOT)
        record["inventory"] = tally.inventory()
        record["metrics"] = metrics
        with open(os.path.join(OUT_DIR, f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
                  "w", encoding="ascii") as fh:
            json.dump(record, fh, indent=1, default=str)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps(record, indent=1, default=str))
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
