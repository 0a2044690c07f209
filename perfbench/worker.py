"""One pass over a workload's operations, in a fresh interpreter.

    python3 worker.py SRC_DIR SPEC_JSON RESULT_JSON

Times ``import kslab, kslab.cli`` (set-up), then runs every operation of
the spec once, in order, and writes the timings, exit codes and escaped
exceptions to RESULT_JSON.  Times are taken on two clocks: this process's
CPU time, and elapsed wall time.  The worker is single-threaded and never
waits on anything but the page cache, so its CPU time is its wall time
minus whatever the host took from the CPU meanwhile.  A fixed calibration
kernel is timed just before and just after the pass, so that run.py can
also take out changes in how fast the host runs the CPU.

With ``"trace": true`` in the spec, each listed function is wrapped
wherever a kslab module binds it, and the spans (name, CPU start, CPU
end, parent, operation) are kept in memory and written out with the
result.  Nothing is imported before the timed import except ``sys`` and
``time``, so set-up is what a CLI user pays.
"""

import sys
import time


class Tracer:
    """In-memory spans at the wrapped function boundaries, single thread."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent, op]
        self.stack: list[int] = []
        self.op = -1

    def wrap(self, name: str, fn):
        import functools

        key = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([key, clock(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def install(self, functions: list[str]) -> None:
        """Rebind each "module.function" in every kslab module that holds it.

        A function the program no longer defines gets no wrapper and so
        reports zero calls.
        """
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "kslab"]
        for qualname in functions:
            mod_name, attr = qualname.rsplit(".", 1)
            original = getattr(sys.modules.get(f"kslab.{mod_name}"), attr, None)
            if original is None:
                self.names.append(qualname)
                continue
            traced = self.wrap(qualname, original)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, binding, traced)


def calibrate() -> float:
    """CPU seconds for a fixed mix of the work kslab does: exact rational
    elimination, a big-integer binomial sum and a plain interpreter loop.
    It never touches kslab."""
    import math
    from fractions import Fraction

    c0 = time.process_time()
    n = 20  # strictly diagonally dominant, so no pivot is zero
    mat = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4) + (i == j) * 100 for j in range(n)]
           for i in range(n)]
    for c in range(n):
        for r in range(c + 1, n):
            f = mat[r][c] / mat[c][c]
            mat[r] = [x - f * y for x, y in zip(mat[r], mat[c])]
    acc = sum(math.comb(1200, k) * (2 * k - 1200) for k in range(600, 1201))
    for i in range(200_000):
        acc += i * i % 7
    return time.process_time() - c0


def _load_section(path: str):
    import json
    from fractions import Fraction

    from kslab.basic_seq_diag import FiniteSection

    with open(path, encoding="utf-8") as fh:
        rows = json.load(fh)
    return FiniteSection(rows=tuple(tuple(Fraction(v) for v in r) for r in rows))


def main(src: str, spec_path: str, result_path: str) -> int:
    sys.path.insert(0, src)
    t0, c0 = time.perf_counter(), time.process_time()
    import kslab
    import kslab.cli

    setup_cpu_s, setup_elapsed_s = time.process_time() - c0, time.perf_counter() - t0

    import json
    import os
    import resource

    if not os.path.realpath(kslab.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"kslab imported from {kslab.__file__}, not from {src}", file=sys.stderr)
        return 3
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    from kslab import basic_seq_diag

    def run_section(section, out):
        report = basic_seq_diag.section_report(section)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, indent=2) + "\n")
        return 0

    # input files of library operations are parsed before the timed pass
    calls = []
    for op in spec["ops"]:
        if op["kind"] == "cli":
            calls.append((kslab.cli.main, (op["argv"],)))
        else:
            calls.append((run_section, (_load_section(op["section"]), op["out"])))

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install(spec["functions"])

    cal_s = [calibrate()]
    results = []
    for i, (fn, args) in enumerate(calls):
        if tracer is not None:
            tracer.op = i
        t_op, c_op = time.perf_counter(), time.process_time()
        rc, error = None, None
        try:
            rc = fn(*args)
        except (Exception, SystemExit) as exc:  # escaped the program's boundary
            error = f"{type(exc).__name__}: {str(exc)[:200]}"
        results.append({"rc": rc, "error": error, "cpu_s": time.process_time() - c_op,
                        "elapsed_s": time.perf_counter() - t_op})
    cal_s.append(calibrate())

    doc = {
        "setup_cpu_s": setup_cpu_s,
        "setup_elapsed_s": setup_elapsed_s,
        "cpu_s": sum(r["cpu_s"] for r in results),
        "elapsed_s": sum(r["elapsed_s"] for r in results),
        "cal_s": cal_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": results,
    }
    if tracer is not None:
        doc["names"] = tracer.names
        doc["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:4]))
