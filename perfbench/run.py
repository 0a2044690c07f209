"""kslab benchmark: cold-process passes over four workloads.

    python3 perfbench/run.py --workload {sweep,subseq,basis,diag} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the program is imported from
``src/``).  Each pass starts a fresh interpreter (``worker.py``) that
imports kslab and runs the workload's operations once, so every pass pays
cold caches as a CLI user does.  Passes repeat until S seconds have gone
by, with at least MIN_PASSES of them.

Every operation's output is checked against reference values this
benchmark computes itself (``workloads.py``).  An operation fails when an
exception escapes the program, the exit code is not the expected 0, or
the output is missing, wrong, or differs in bytes from the first pass of
the run.  The run is not ``correct`` when the program claims success
(exit 0, no exception) with a missing or wrong output, when a report is
not byte-stable across passes, or when traced call counts differ across
passes.

The last line of stdout is one JSON object.  With ``--trace 0`` its
metrics are the end-to-end ones: medians over passes of set-up time
(``setup_s``), pass time (``wall_s``), checked work units per second of
pass time (``items_per_s``) and worker peak RSS (``peak_rss_mb``), and the
share of operations that succeeded (``ok_frac``).  With ``--trace 1`` it
alternates untraced and traced passes and reports, per wrapped function,
``.calls``, inclusive ``.s`` and ``.self_s`` (medians over traced
passes), plus ``cli.out_bytes``, ``trace.overhead_s``,
``trace.uncovered_frac`` and ``fail_frac``.  The line before it holds the
sample counts, per-pass samples on both clocks, and report digests.

End-to-end times are the worker's CPU time at a reference CPU speed:
each pass's CPU seconds times REF_CAL_S over the mean CPU time of a fixed
calibration kernel (worker.calibrate) run just before and just after the
pass.  The worker is one CPU-bound thread, so its CPU time is the wall
time it would take on a CPU the host does not share.  On a shared 2-vCPU
host, time stolen by the hypervisor made elapsed-time medians spread
0.10-0.26 (IQR over median, 10 seeds), and the host's CPU speed moved the
CPU time of the same basis pass between 2.2 s and 4.3 s within minutes;
calibration halved the spread of CPU-time medians there.  Raw CPU and
elapsed seconds are kept in the details line.  Per-layer span times and
``trace.overhead_s`` are raw CPU seconds, which compare the passes of one
run with each other.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, CheckFailed

MIN_PASSES = 3
REF_CAL_S = 0.08  # worker.calibrate() CPU seconds at the reference speed
MIN_TRACE_PASSES = 2  # of each kind, untraced and traced
DEADLINE_S = 170.0

# Public functions wrapped in the traced run, "<module>.<function>".
TRACED = [
    "rect_sup.sup_rect_fast", "rect_sup.certify_bound2", "exactnum.cmp_sq_below",
    "ks_measure.total_variation", "ks_measure.support_size",
    "tensor_bounds.tensor_sup_exact", "rect_sup.sup_rect_bruteforce",
    "rect_sup.report_to_json",
    "ks_measure.eval_symmetric", "tensor_bounds.profile_table",
    "normal_subseq.strongly_normal_partial_sums", "normal_subseq.strongly_normal_report",
    "normal_subseq.extract",
    "schauder.density_check", "schauder.build_triangular_basis",
    "schauder.expand", "schauder.verify_stabilization", "schauder.basis_to_json",
    "basic_seq_diag.basis_constant", "basic_seq_diag.check_section", "basic_seq_diag.linprog",
    "exactnum.format_rational", "exactnum.decimal_str",
    "cli.cmd_verify", "cli.cmd_sup", "cli.cmd_subseq", "cli.cmd_schauder",
]


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def run_worker(root: Path, spec: Path, result: Path, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "KSLAB_THREADS"}
    # one process, no extra threads: keep BLAS and OpenMP pools single-threaded
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           str(root / "src"), str(spec), str(result)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker exceeded the run deadline") from exc
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(result.read_text(encoding="utf-8"))


@dataclass
class Pass:
    """Outcome of one worker pass after its outputs were checked."""

    doc: dict
    failed: int
    units: int
    out_bytes: int


class Checker:
    """Checks each operation's output once per distinct digest and tracks
    byte stability against the first pass of the run."""

    def __init__(self, ops: list[dict]):
        self.ops = ops
        self.first_digest: list[str | None] = [None] * len(ops)
        self.verdicts: dict[tuple[int, str], tuple[int, str | None]] = {}
        self.failures: dict[str, int] = {}
        self.incorrect: list[str] = []

    def _fail(self, reason: str, incorrect: bool) -> None:
        self.failures[reason] = self.failures.get(reason, 0) + 1
        if incorrect and reason not in self.incorrect:
            self.incorrect.append(reason)

    def evaluate(self, doc: dict) -> Pass:
        failed = units = out_bytes = 0
        for i, (op, res) in enumerate(zip(self.ops, doc["ops"])):
            label = Path(op["out"]).stem
            claimed_ok = res["error"] is None and res["rc"] == 0
            out = Path(op["out"])
            data = out.read_bytes() if out.exists() else None
            if data is not None and op["kind"] == "cli":
                out_bytes += len(data)
            if res["error"] is not None:
                reason = f"{label}: {res['error'].splitlines()[0][:120]}"
            elif res["rc"] != 0:
                reason = f"{label}: exit code {res['rc']}"
            elif data is None:
                reason = f"{label}: no output"
            else:
                reason = None
            if reason is None:
                digest = hashlib.sha256(data).hexdigest()
                if self.first_digest[i] is None:
                    self.first_digest[i] = digest
                if digest != self.first_digest[i]:
                    reason = f"{label}: report bytes differ from the first pass"
                else:
                    got, reason = self._check(i, digest, data)
            if reason is not None:
                failed += 1
                self._fail(reason, incorrect=claimed_ok)
            else:
                units += got
        return Pass(doc, failed, units, out_bytes)

    def _check(self, i: int, digest: str, data: bytes) -> tuple[int, str | None]:
        key = (i, digest)
        if key not in self.verdicts:
            label = Path(self.ops[i]["out"]).stem
            try:
                self.verdicts[key] = (self.ops[i]["check"](json.loads(data)), None)
            except CheckFailed as exc:
                self.verdicts[key] = (0, f"{label}: {exc}")
            except (ValueError, KeyError, TypeError, IndexError, AttributeError, OSError) as exc:
                self.verdicts[key] = (0, f"{label}: malformed report ({type(exc).__name__}: {exc})")
        return self.verdicts[key]


def layer_profile(doc: dict) -> tuple[dict[str, tuple[int, float, float]], float]:
    """Per function (calls, inclusive s, self s), and the share of the
    pass wall time that no span covers."""
    names, spans = doc["names"], doc["spans"]
    child = [0.0] * len(spans)
    covered = 0.0
    for key, start, end, parent, _op in spans:
        if parent >= 0:
            child[parent] += end - start
        else:
            covered += end - start
    prof = {name: [0, 0.0, 0.0] for name in names}
    for (key, start, end, _parent, _op), kids in zip(spans, child):
        row = prof[names[key]]
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - kids
    return {k: tuple(v) for k, v in prof.items()}, 1.0 - covered / doc["cpu_s"]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def at_reference_speed(doc: dict) -> tuple[float, float]:
    """Set-up and pass CPU seconds scaled to the reference CPU speed."""
    speed = REF_CAL_S / statistics.mean(doc["cal_s"])
    return doc["setup_cpu_s"] * speed, doc["cpu_s"] * speed


def end_to_end(passes: list[Pass], attempted: int, failed: int) -> dict:
    med = statistics.median
    setup, wall = zip(*(at_reference_speed(p.doc) for p in passes))
    return {
        "setup_s": metric(med(setup), "s"),
        "wall_s": metric(med(wall), "s"),
        "items_per_s": metric(med(p.units / w for p, w in zip(passes, wall)), "1/s"),
        "ok_frac": metric(1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": metric(med(p.doc["peak_rss_mb"] for p in passes), "MB"),
    }


def per_layer(untraced: list[Pass], traced: list[Pass], attempted: int,
              failed: int) -> tuple[dict, bool]:
    """Per-layer metrics from the traced passes, and whether every traced
    pass made the same calls."""
    profiles = [layer_profile(p.doc) for p in traced]
    calls = [[prof[name][0] for name in TRACED] for prof, _ in profiles]
    metrics = {}
    for i, name in enumerate(TRACED):
        metrics[f"{name}.calls"] = metric(calls[0][i], "count")
        metrics[f"{name}.s"] = metric(statistics.median(p[name][1] for p, _ in profiles), "s")
        metrics[f"{name}.self_s"] = metric(statistics.median(p[name][2] for p, _ in profiles), "s")
    metrics["cli.out_bytes"] = metric(statistics.median(p.out_bytes for p in traced), "bytes")
    overhead = (statistics.median(p.doc["cpu_s"] for p in traced)
                - statistics.median(p.doc["cpu_s"] for p in untraced))
    metrics["trace.overhead_s"] = metric(overhead, "s")
    metrics["trace.uncovered_frac"] = metric(statistics.median(u for _, u in profiles), "ratio")
    metrics["fail_frac"] = metric(failed / attempted, "ratio")
    return metrics, all(c == calls[0] for c in calls)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "kslab" / "__init__.py").is_file():
        raise BenchError(f"no kslab sources under {root / 'src'}; run from a source checkout")
    deadline = time.monotonic() + DEADLINE_S
    work = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        ops = WORKLOADS[workload](seed, work)
        specs = {}
        for traced in (False, True):
            specs[traced] = work / f"spec_{int(traced)}.json"
            specs[traced].write_text(json.dumps({
                "trace": traced, "functions": TRACED,
                "ops": [{k: v for k, v in op.items() if k != "check"} for op in ops],
            }), encoding="utf-8")
        warm = work / "spec_warm.json"
        warm.write_text(json.dumps({"trace": False, "ops": []}), encoding="utf-8")
        result = work / "result.json"
        run_worker(root, warm, result, deadline)  # compiles bytecode, warms the file cache

        checker = Checker(ops)
        untraced: list[Pass] = []
        traced: list[Pass] = []
        t0 = time.monotonic()
        while True:
            use_trace = trace and len(traced) < len(untraced)
            for op in ops:
                Path(op["out"]).unlink(missing_ok=True)
            done = checker.evaluate(run_worker(root, specs[use_trace], result, deadline))
            (traced if use_trace else untraced).append(done)
            enough = (len(untraced) >= (MIN_TRACE_PASSES if trace else MIN_PASSES)
                      and (not trace or len(traced) >= MIN_TRACE_PASSES))
            if enough and time.monotonic() - t0 >= seconds:
                break

        passes = untraced + traced
        attempted = len(ops) * len(passes)
        failed = sum(p.failed for p in passes)
        if trace:
            metrics, calls_stable = per_layer(untraced, traced, attempted, failed)
            if not calls_stable:
                checker.incorrect.append("traced call counts differ across passes")
        else:
            metrics = end_to_end(untraced, attempted, failed)
        print(json.dumps({
            "workload": workload, "seed": seed, "trace": int(trace),
            "passes": {"untraced": len(untraced), "traced": len(traced)},
            "samples": {k: [p.doc[k] for p in passes]
                        for k in ("cpu_s", "elapsed_s", "setup_cpu_s", "setup_elapsed_s", "cal_s")},
            "digests": {Path(op["out"]).stem: d for op, d in zip(ops, checker.first_digest)},
            "failures": checker.failures,
            "incorrect": checker.incorrect,
        }))
        return {"correct": not checker.incorrect, "attempted": attempted, "failed": failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        parent = work.parent
        if parent.exists() and not any(parent.iterdir()):
            parent.rmdir()


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    sys.set_int_max_str_digits(0)  # reference checks parse reports of any size
    try:
        doc = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
